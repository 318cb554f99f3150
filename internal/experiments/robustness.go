package experiments

import (
	"context"
	"fmt"

	"repro/internal/synth"
)

// RobustnessSweep probes the paper's platform-independence claim
// directly: the D0-pretrained detector (at the E-platform reporting
// threshold) is evaluated on E-platform universes whose neutral product
// vocabulary increasingly diverges from the training platform's (a
// row's X is the shift). Word-level features degrade with unknown
// vocabulary, while the structural features (length, punctuation,
// entropy, duplication) are vocabulary-free — so detection should decay
// gracefully, not collapse.
func (l *Lab) RobustnessSweep(ctx context.Context) (fmt.Stringer, error) {
	det, err := l.EPlatSystem()
	if err != nil {
		return nil, err
	}
	res := &Sweep{Title: "Robustness — detection vs target-platform vocabulary shift"}
	for _, shift := range []float64{0, 0.1, 0.25, 0.5} {
		cfg := l.scaled(synth.EPlatformConfig(), l.cfg.EPlatScale, 500)
		cfg.VocabShift = shift
		m, err := evaluate(ctx, det, synth.Generate(cfg).Dataset.Items)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, SweepRow{fmt.Sprintf("vocab shift %.2f:", shift), shift, m})
	}
	return res, nil
}
