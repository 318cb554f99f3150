package eval_test

import (
	"fmt"

	"repro/internal/ml/eval"
)

func ExamplePRCurve() {
	scores := []float64{0.9, 0.8, 0.7, 0.6}
	labels := []int{1, 1, 0, 0}
	curve := eval.PRCurve(scores, labels)
	best, _ := eval.BestThreshold(curve)
	fmt.Printf("AP=%.2f best: thr=%.1f P=%.2f R=%.2f\n",
		eval.AveragePrecision(curve), best.Threshold, best.Precision, best.Recall)
	// Output: AP=1.00 best: thr=0.8 P=1.00 R=1.00
}

func ExampleConfusion() {
	var c eval.Confusion
	c.Add(true, true)   // true positive
	c.Add(false, true)  // false positive
	c.Add(true, false)  // false negative
	c.Add(false, false) // true negative
	fmt.Printf("P=%.2f R=%.2f\n", c.Precision(), c.Recall())
	// Output: P=0.50 R=0.50
}
