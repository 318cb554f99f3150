// Measurement reruns the paper's Section V study on the E-platform
// stand-in: buyer reliability (userExpValue, Fig 11), order sources
// (client distribution, Fig 12), risky-user shopping behavior
// (repeat purchases and collusive pairs), and the cross-platform
// word-cloud and sentiment comparisons (Figs 8–10).
//
//	go run ./examples/measurement
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/experiments"
)

func main() {
	lab := experiments.NewLab(experiments.Config{
		D0Scale:    0.03,
		D1Scale:    0.002,
		EPlatScale: 0.002,
	})

	for i, id := range []string{"fig11", "fig12", "riskyusers", "fig8", "fig10"} {
		e, _ := experiments.Lookup(id)
		out, err := e.Run(lab, context.Background())
		if err != nil {
			log.Fatal(err)
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(out)
	}
}
