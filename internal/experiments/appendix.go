package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/stats"
)

// AppendixResult reproduces Appendix Tables VIII and IX: the full
// top-50 highest-frequency words in fraud items' comments on both
// platforms, with each word's frequency and polarity class.
type AppendixResult struct {
	EPlat  []AppendixWord
	Taobao []AppendixWord
	// SharedCount is the number of words common to both top-50 lists
	// (the paper: "very similar").
	SharedCount int
}

// AppendixWord is one ranked word.
type AppendixWord struct {
	Word     string
	Count    int
	Positive bool
	Negative bool
}

// Appendix computes the full Tables VIII/IX ranking from the same word
// counts Fig8 uses.
func (l *Lab) Appendix(context.Context) (fmt.Stringer, error) {
	wc := l.wordClouds()
	bank := l.Bank()
	classify := func(ws []stats.WordCount) []AppendixWord {
		out := make([]AppendixWord, len(ws))
		for i, w := range ws {
			out[i] = AppendixWord{
				Word:     w.Word,
				Count:    w.Count,
				Positive: bank.IsPositive(w.Word),
				Negative: bank.IsNegative(w.Word),
			}
		}
		return out
	}
	res := &AppendixResult{
		EPlat:  classify(wc.FraudEPlat),
		Taobao: classify(wc.FraudTaobao),
	}
	inTaobao := map[string]bool{}
	for _, w := range res.Taobao {
		inTaobao[w.Word] = true
	}
	for _, w := range res.EPlat {
		if inTaobao[w.Word] {
			res.SharedCount++
		}
	}
	return res, nil
}

// String prints the two top-50 tables side by side.
func (r *AppendixResult) String() string {
	var b strings.Builder
	b.WriteString("Appendix Tables VIII/IX — top-50 words of fraud items' comments\n")
	fmt.Fprintf(&b, "  shared between platforms: %d/50\n", r.SharedCount)
	fmt.Fprintf(&b, "  %-4s %-22s %-22s\n", "#", "E-platform", "Taobao")
	n := len(r.EPlat)
	if len(r.Taobao) > n {
		n = len(r.Taobao)
	}
	tag := func(w AppendixWord) string {
		switch {
		case w.Positive:
			return w.Word + "(+)"
		case w.Negative:
			return w.Word + "(-)"
		default:
			return w.Word
		}
	}
	for i := 0; i < n; i++ {
		var e, t string
		if i < len(r.EPlat) {
			e = tag(r.EPlat[i])
		}
		if i < len(r.Taobao) {
			t = tag(r.Taobao[i])
		}
		fmt.Fprintf(&b, "  %-4d %-22s %-22s\n", i+1, e, t)
	}
	return b.String()
}
