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
// systems) through a Lab, which builds them lazily and caches them.
// Every experiment returns a result struct that knows how to print
// itself in the paper's format.
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
	// Workers bounds extraction parallelism; <= 0 means GOMAXPROCS.
	Workers int
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

// Lab lazily builds and caches the artifacts experiments share.
type Lab struct {
	cfg Config

	once struct {
		bank, d0, d1, eplat, analyzer, system, epsystem sync.Once
	}
	bank        *textgen.Bank
	d0          *synth.Universe
	d1          *synth.Universe
	eplat       *synth.Universe
	analyzer    *core.Analyzer
	analyzErr   error
	system      *core.Detector
	systemErr   error
	epsystem    *core.Detector
	epsystemErr error
}

// NewLab returns a Lab with the given configuration.
func NewLab(cfg Config) *Lab { return &Lab{cfg: cfg.withDefaults()} }

// Bank returns the shared word bank.
func (l *Lab) Bank() *textgen.Bank {
	l.once.bank.Do(func() { l.bank = textgen.NewBank() })
	return l.bank
}

// D0 returns the scaled Table IV training universe.
func (l *Lab) D0() *synth.Universe {
	l.once.d0.Do(func() {
		cfg := synth.D0Config().Scale(l.cfg.D0Scale)
		cfg.Seed += l.cfg.Seed
		l.d0 = synth.Generate(cfg)
	})
	return l.d0
}

// D1 returns the scaled Table V evaluation universe.
func (l *Lab) D1() *synth.Universe {
	l.once.d1.Do(func() {
		cfg := synth.D1Config().Scale(l.cfg.D1Scale)
		cfg.Seed += l.cfg.Seed
		l.d1 = synth.Generate(cfg)
	})
	return l.d1
}

// EPlat returns the scaled E-platform universe.
func (l *Lab) EPlat() *synth.Universe {
	l.once.eplat.Do(func() {
		cfg := synth.EPlatformConfig().Scale(l.cfg.EPlatScale)
		cfg.Seed += l.cfg.Seed
		l.eplat = synth.Generate(cfg)
	})
	return l.eplat
}

// Analyzer returns the shared semantic analyzer. It uses the oracle
// lexicons (the bank's ground truth) plus a sentiment model trained on
// a generated polar corpus: the lexicon-recovery step has its own
// dedicated experiment (Table 1), so the downstream experiments are not
// confounded by it.
func (l *Lab) Analyzer() (*core.Analyzer, error) {
	l.once.analyzer.Do(func() {
		texts, labels := synth.PolarCorpus(l.cfg.PolarComments, 9101+l.cfg.Seed)
		l.analyzer, l.analyzErr = core.OracleAnalyzer(l.Bank(), texts, labels)
	})
	return l.analyzer, l.analyzErr
}

// System returns the shared CATS detector pre-trained on D0 with the
// default boosted-tree classifier — the configuration Sections III and
// IV evaluate.
func (l *Lab) System() (*core.Detector, error) {
	l.once.system.Do(func() {
		l.system, l.systemErr = l.trainOnD0(nil, core.DetectorConfig{})
	})
	return l.system, l.systemErr
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
	if err := det.Train(&l.D0().Dataset, l.cfg.Workers); err != nil {
		return nil, err
	}
	return det, nil
}

// EPlatThreshold is the fraud-score cutoff used for third-party
// reporting on E-platform. Reporting another platform's items to the
// public is a high-confidence regime — the paper reports 10,720 items
// out of ~4.5M (0.24%) and its expert audit confirms 96% of them, which
// is only reachable with a conservative cutoff.
const EPlatThreshold = 0.95

// EPlatSystem returns a CATS detector trained on D0 with the
// high-confidence E-platform reporting threshold.
func (l *Lab) EPlatSystem() (*core.Detector, error) {
	l.once.epsystem.Do(func() {
		l.epsystem, l.epsystemErr = l.trainOnD0(nil, core.DetectorConfig{Threshold: EPlatThreshold})
	})
	return l.epsystem, l.epsystemErr
}

// Segmenter returns a segmenter over the bank vocabulary.
func (l *Lab) Segmenter() *tokenize.Segmenter {
	return tokenize.NewSegmenter(l.Bank().Vocabulary())
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
