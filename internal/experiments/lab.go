// Package experiments reproduces every table and figure of the paper's
// evaluation on the synthetic stand-in universes: Table I (lexicon
// expansion), Table III (classifier comparison), Tables IV/V (dataset
// statistics), Table VI (CATS on D1), Figures 1–5 (comment
// distributions), Figure 7 (feature importance), Figures 8/9 + Appendix
// (word clouds), Figures 10–13 (cross-platform measurement study), the
// E-platform end-to-end pipeline, and the risky-user analysis — plus
// the extensions DESIGN.md calls out: per-category deployment,
// reporting-threshold and vocabulary-shift sweeps, time-aspect
// measurement, learning and rounds curves, and the design-choice
// ablations.
//
// Experiments share expensive artifacts (universes, analyzers, trained
// systems) through a Lab, which builds each on first use and caches it.
// Every experiment is a Lab method of one shape, listed once in Table,
// and returns a result that prints itself in the paper's format; the
// seven that report one P/R/F row per setting all return a Sweep.
package experiments

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/ecom"
	"repro/internal/synth"
	"repro/internal/textgen"
	"repro/internal/tokenize"
)

// Config scales and seeds a Lab. The paper's full dataset sizes need
// ~72M generated comments; the default scales keep every experiment
// laptop-sized while preserving class ratios.
type Config struct {
	// D0Scale scales the 34k-item training set; <= 0 means 0.1
	// (~3,400 items — enough hard negatives for the classifier to hold
	// the paper's precision band on imbalanced D1).
	D0Scale float64
	// D1Scale scales the 1.48M-item evaluation set; <= 0 means 0.008
	// (~11,800 items, fraud ratio preserved — large enough that the
	// ~150 fraud items keep headline metrics stable across seeds).
	D1Scale float64
	// EPlatScale scales the 4.5M-item crawl; <= 0 means 0.002
	// (~9,000 items).
	EPlatScale float64
	// SampleItems is the per-class sample for the Fig 1–5 distribution
	// studies (the paper samples 5,000 + 5,000); <= 0 means 400.
	SampleItems int
	// CorpusComments is the word2vec training corpus size (the paper
	// used 70M); <= 0 means 20,000.
	CorpusComments int
	// PolarComments is the sentiment training corpus size;
	// <= 0 means 4,000.
	PolarComments int
	// GraphUsers and GraphEdges size the organized-fraud clustering
	// benchmark's planted-ring universe; <= 0 means 200,000 users /
	// 2,000,000 edges. The headline run uses 10M / 100M.
	GraphUsers int
	GraphEdges int
	// Seed offsets every dataset seed, so labs with different seeds
	// draw disjoint universes.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.D0Scale <= 0 {
		c.D0Scale = 0.1
	}
	if c.D1Scale <= 0 {
		c.D1Scale = 0.008
	}
	if c.EPlatScale <= 0 {
		c.EPlatScale = 0.002
	}
	if c.SampleItems <= 0 {
		c.SampleItems = 400
	}
	if c.CorpusComments <= 0 {
		c.CorpusComments = 20000
	}
	if c.PolarComments <= 0 {
		c.PolarComments = 4000
	}
	if c.GraphUsers <= 0 {
		c.GraphUsers = 200000
	}
	if c.GraphEdges <= 0 {
		c.GraphEdges = 2000000
	}
	return c
}

// Lab holds the artifacts experiments share. Each is a field to call:
// the first call builds the artifact, every later one returns the same
// value (sync.OnceValue), so experiments must not mutate what they get.
type Lab struct {
	cfg Config

	// Bank is the shared word bank and Segmenter a segmenter over its
	// vocabulary.
	Bank      func() *textgen.Bank
	Segmenter func() *tokenize.Segmenter
	// D0, D1 and EPlat are the scaled Table IV training universe, the
	// Table V evaluation universe and the E-platform crawl.
	D0, D1, EPlat func() *synth.Universe
	// Analyzer is the shared semantic analyzer. It uses the oracle
	// lexicons (the bank's ground truth) plus a sentiment model trained
	// on a generated polar corpus: the lexicon-recovery step has its own
	// dedicated experiment (Table 1), so the downstream experiments are
	// not confounded by it.
	Analyzer func() (*core.Analyzer, error)
	// System is the CATS detector pre-trained on D0 with the default
	// boosted-tree classifier — the configuration Sections III and IV
	// evaluate — and EPlatSystem the same at the high-confidence
	// E-platform reporting threshold.
	System, EPlatSystem func() (*core.Detector, error)
}

// EPlatThreshold is the fraud-score cutoff used for third-party
// reporting on E-platform. Reporting another platform's items to the
// public is a high-confidence regime — the paper reports 10,720 items
// out of ~4.5M (0.24%) and its expert audit confirms 96% of them, which
// is only reachable with a conservative cutoff.
const EPlatThreshold = 0.95

// NewLab returns a Lab with the given configuration.
func NewLab(cfg Config) *Lab {
	l := &Lab{cfg: cfg.withDefaults()}
	universe := func(base synth.Config, scale float64) func() *synth.Universe {
		return sync.OnceValue(func() *synth.Universe { return synth.Generate(l.scaled(base, scale, 0)) })
	}
	trained := func(dc core.DetectorConfig) func() (*core.Detector, error) {
		return sync.OnceValues(func() (*core.Detector, error) { return l.trainOnD0(nil, dc) })
	}
	l.Bank = sync.OnceValue(textgen.NewBank)
	l.Segmenter = sync.OnceValue(func() *tokenize.Segmenter { return tokenize.NewSegmenter(l.Bank().Vocabulary()) })
	l.D0 = universe(synth.D0Config(), l.cfg.D0Scale)
	l.D1 = universe(synth.D1Config(), l.cfg.D1Scale)
	l.EPlat = universe(synth.EPlatformConfig(), l.cfg.EPlatScale)
	l.Analyzer = sync.OnceValues(func() (*core.Analyzer, error) {
		texts, labels := synth.PolarCorpus(l.cfg.PolarComments, 9101+l.cfg.Seed)
		bank := l.Bank()
		return core.OracleAnalyzer(bank.Vocabulary(), bank.PositiveForms(), bank.Negative, texts, labels)
	})
	l.System = trained(core.DetectorConfig{})
	l.EPlatSystem = trained(core.DetectorConfig{Threshold: EPlatThreshold})
	return l
}

// scaled is a paper dataset's shape at the given scale, its seed offset
// by seed and by the lab's own, so labs with different seeds draw
// disjoint universes.
func (l *Lab) scaled(base synth.Config, scale float64, seed int64) synth.Config {
	cfg := base.Scale(scale)
	cfg.Seed += seed + l.cfg.Seed
	return cfg
}

// trainOnD0 builds a detector over analyzer a (nil means the shared
// Analyzer) and trains it on D0 — the step every experiment that needs
// a model of its own starts with.
func (l *Lab) trainOnD0(a *core.Analyzer, cfg core.DetectorConfig) (*core.Detector, error) {
	if a == nil {
		var err error
		if a, err = l.Analyzer(); err != nil {
			return nil, err
		}
	}
	det := core.NewDetector(a, cfg)
	if err := det.Train(&l.D0().Dataset, 0); err != nil {
		return nil, err
	}
	return det, nil
}

// sampleSplit returns up to n fraud and n normal items from a universe,
// mirroring the paper's "randomly pick 5,000 fraud items and 5,000
// normal items" protocol (generation order is already shuffled).
func sampleSplit(u *synth.Universe, n int) (fraud, normal []*ecom.Item) {
	f, nm := u.Dataset.Split()
	if len(f) > n {
		f = f[:n]
	}
	if len(nm) > n {
		nm = nm[:n]
	}
	return f, nm
}

// percent formats a ratio as a paper-style percentage.
func percent(x float64) string { return fmt.Sprintf("%.0f%%", x*100) }
