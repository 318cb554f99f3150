// Command cats trains the CATS detector on a labeled JSONL dataset and
// scores another dataset (JSONL or columnar), writing one line per
// detection.
//
// Usage:
//
//	cats -train d0.jsonl -detect items.jsonl [-threshold 0.5]
//	     [-corpus 20000] [-out detections.tsv]
//	     [-save-model model.json] [-model-format json|columnar]
//	cats -load-model model.json -detect items.jsonl
//
// A flag the run would not read is a usage error, not a silent default:
// -threshold or -corpus beside -load-model, -model-format without
// -save-model. A -threshold outside [0, 1] is refused too: a model
// saved with one would not load.
//
// The output is a TSV: a header, then item_id, score, fraud, filtered
// per item. An item_id holding a tab, CR or LF, or beginning with a
// double quote, is written Go-quoted (strconv.Quote), so every row has
// four fields; every other id is written as it is.
//
// The semantic analyzer (word2vec lexicons + sentiment model) is
// trained on a generated comment corpus; at full deployment it would be
// trained on the target platform's own public comments. A trained
// system can be saved with -save-model and reused with -load-model
// (skipping training entirely); saved models also feed `catsserve`.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/ml/eval"
	"repro/internal/synth"
	"repro/internal/textgen"
)

func main() {
	var (
		trainPath  = flag.String("train", "", "labeled training JSONL (required unless -load-model)")
		detectPath = flag.String("detect", "", "items to score, JSONL or columnar (the format is sniffed; required)")
		threshold  = flag.Float64("threshold", 0.5, "fraud probability threshold")
		corpusSize = flag.Int("corpus", 20000, "generated comments for word2vec training")
		outPath    = flag.String("out", "-", "output path ('-' = stdout)")
		savePath   = flag.String("save-model", "", "save the trained system to this path")
		saveFmt    = flag.String("model-format", "json", "format for -save-model: json or columnar (loads sniff either)")
		loadPath   = flag.String("load-model", "", "load a previously saved system instead of training")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := ignoredFlag(set); err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(2)
	}
	if err := run(*trainPath, *detectPath, *threshold, *corpusSize, *outPath, *savePath, *saveFmt, *loadPath); err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
}

// errorLine is the stderr line for a failed run: the error behind one
// "cats: " prefix, which an error from the cats package already has.
func errorLine(err error) string {
	msg := err.Error()
	if strings.HasPrefix(msg, "cats: ") {
		return msg
	}
	return "cats: " + msg
}

// ignoredFlag refuses a flag the user set that this run would not read,
// given the names of the flags that were set: a loaded model scores at
// the threshold, and with the lexicons, it was saved with.
func ignoredFlag(set map[string]bool) error {
	for _, name := range []string{"threshold", "corpus"} {
		if set[name] && set["load-model"] {
			return fmt.Errorf("-%s applies to -train only; -load-model keeps what the model was saved with", name)
		}
	}
	if set["model-format"] && !set["save-model"] {
		return fmt.Errorf("-model-format applies to -save-model only")
	}
	return nil
}

func run(trainPath, detectPath string, threshold float64, corpusSize int, outPath, savePath, saveFmt, loadPath string) error {
	if detectPath == "" {
		return fmt.Errorf("-detect is required")
	}
	if !(threshold >= 0 && threshold <= 1) {
		// A saved model carries it, and a load refuses one outside.
		return fmt.Errorf("-threshold %v is outside [0, 1]", threshold)
	}
	var format cats.SnapshotFormat
	switch saveFmt {
	case "json":
		format = cats.FormatJSON
	case "columnar":
		format = cats.FormatColumnar
	default:
		return fmt.Errorf("unknown -model-format %q (want json or columnar)", saveFmt)
	}
	toScore, err := os.Open(detectPath)
	if err != nil {
		return fmt.Errorf("open detection set: %w", err)
	}
	defer toScore.Close()

	var sys *cats.System
	var load time.Duration
	switch {
	case loadPath != "":
		t0 := time.Now()
		sys, err = cats.LoadFile(loadPath)
		if err != nil {
			return err
		}
		load = time.Since(t0)
	case trainPath != "":
		labeled, err := dataset.ReadAll(trainPath)
		if err != nil {
			return fmt.Errorf("read training set: %w", err)
		}
		polarTexts, polarLabels := synth.PolarCorpus(4000, 17)
		cfg := cats.DefaultConfig()
		cfg.Detector.Threshold = threshold
		sys, err = cats.Train(context.Background(), cats.TrainingInput{
			Corpus:      synth.TrainingCorpus(corpusSize, 18),
			PolarTexts:  polarTexts,
			PolarLabels: polarLabels,
			Vocabulary:  textgen.NewBank().Vocabulary(),
			Labeled:     labeled,
		}, cfg)
		if err != nil {
			return fmt.Errorf("train: %w", err)
		}
	default:
		return fmt.Errorf("either -train or -load-model is required")
	}
	if savePath != "" {
		// A model is saved with the segmenter dictionary it was trained or
		// loaded with: the word bank's for one trained here, the
		// snapshot's own for a loaded one (which never builds the bank).
		if err := sys.SaveFileFormat(savePath, sys.Vocabulary(), format); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cats: saved model to %s (%s)\n", savePath, saveFmt)
	}

	out := os.Stdout
	if outPath != "-" {
		out, err = os.Create(outPath)
		if err != nil {
			return err
		}
		defer out.Close() // for the error returns; success checks Close below
	}
	bw := bufio.NewWriter(out)
	fmt.Fprintln(bw, "item_id\tscore\tfraud\tfiltered")

	// Stream the detection set through the fused pipeline: detections
	// are written as they are scored, the dataset is never materialized,
	// and the configured worker count applies. Ground-truth labels (when
	// present) feed the evaluation as they stream past; the item the
	// callback sees has its item-level fields and no Comments.
	var c eval.Confusion
	var row []byte // one buffer for every row
	start := time.Now()
	stats, err := sys.DetectStream(context.Background(), toScore, 0, func(item *cats.Item, d cats.Detection) error {
		row = appendRow(row[:0], &d)
		if _, err := bw.Write(row); err != nil {
			return err
		}
		c.Add(item.Label.IsFraud(), d.IsFraud)
		return nil
	})
	wall := time.Since(start)
	if err != nil {
		return fmt.Errorf("detect: %w", err)
	}
	// A full disk or closed pipe surfaces here: the TSV is complete only
	// once the buffer is flushed and the file closed without error.
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write detections: %w", err)
	}
	if outPath != "-" {
		if err := out.Close(); err != nil {
			return fmt.Errorf("write detections: %w", err)
		}
	}
	fmt.Fprintln(os.Stderr, summary(stats, load, wall))

	// When the detection set carries ground-truth labels (synthetic or
	// curated data), report evaluation metrics too.
	if c.TP+c.FN > 0 {
		fmt.Fprintf(os.Stderr, "cats: labeled evaluation: %s\n", eval.FromConfusion(c))
	}
	return nil
}

// summary is the run's stderr line: the time -load-model took (0 for a
// model trained in the run), then busy time per DetectStream stage
// beside the stream's wall — the largest stage is the bottleneck, and
// the three sum to more than the wall by what they overlapped. The load
// comes before the stream and is not part of its wall.
func summary(stats cats.StreamStats, load, wall time.Duration) string {
	return fmt.Sprintf("cats: scored %d items, reported %d fraud (%d batches: load %.3fs read %.3fs score %.3fs emit %.3fs wall %.3fs)",
		stats.Items, stats.Reported, stats.Batches, load.Seconds(), stats.ReadSeconds, stats.ScoreSeconds, stats.EmitSeconds, wall.Seconds())
}

// appendRow appends d's TSV row — item_id, score to four decimals,
// fraud, filtered — to dst: the bytes fmt's "%s\t%.4f\t%v\t%v\n" would
// print, without its interface boxing and verb parsing per row. An id
// that would break the row, or that begins with the quote, is quoted.
func appendRow(dst []byte, d *cats.Detection) []byte {
	if strings.ContainsAny(d.ItemID, "\t\r\n") || strings.HasPrefix(d.ItemID, `"`) {
		dst = strconv.AppendQuote(dst, d.ItemID)
	} else {
		dst = append(dst, d.ItemID...)
	}
	dst = append(dst, '\t')
	dst = strconv.AppendFloat(dst, d.Score, 'f', 4, 64)
	dst = append(dst, '\t')
	dst = strconv.AppendBool(dst, d.IsFraud)
	dst = append(dst, '\t')
	dst = strconv.AppendBool(dst, d.Filtered)
	return append(dst, '\n')
}
