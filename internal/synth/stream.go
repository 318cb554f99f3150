package synth

import "repro/internal/ecom"

// StreamStats summarizes a streamed corpus.
type StreamStats struct {
	Items    int
	Fraud    int
	Normal   int
	Comments int
}

// Stream generates the universe's items one at a time, invoking emit
// for each and never materializing the corpus: peak memory is the user
// pool plus a single item, independent of how many items (or comments)
// the config asks for. That is what makes corpus-scale runs — the
// paper's 72M-comment D1, the 100M-comment E-platform crawl — writable
// straight to a columnar dataset file on ordinary hardware.
//
// Stream is deterministic: the same Config always yields the same item
// sequence. It draws from the same user/ring/shop pools as Generate
// (identical RNG prefix), but interleaves the label classes as it goes
// — drawing each item's class from the remaining class counts —
// instead of Generate's generate-then-shuffle, so the two emit the
// same population in a different order. Items are emitted already
// shuffled; label order carries no information.
//
// Generation allocates per item, not per comment or word: an item's
// comment contents and IDs are built in a buffer reused across items
// and converted to one string, which every Content and ID slices, and
// its Comments slice is allocated once at its final length (nil when
// the item has none). So emit may retain the item and any of its
// comments — nothing handed to emit is reused — but a retained comment
// string pins its whole item's comment text. A non-nil error from emit
// aborts the stream and is returned as is, alongside stats for the
// items emitted so far.
func Stream(cfg Config, emit func(*ecom.Item) error) (StreamStats, error) {
	cfg = cfg.withDefaults()
	g := newItemGen(cfg)

	remaining := [3]int{cfg.FraudEvidence, cfg.FraudManual, cfg.Normal}
	classes := [3]ecom.Label{ecom.FraudEvidence, ecom.FraudManual, ecom.Normal}
	left := remaining[0] + remaining[1] + remaining[2]

	var stats StreamStats
	for seq := 0; left > 0; seq++ {
		// Draw the class proportional to what remains: a uniform random
		// interleaving, equivalent in distribution to shuffling the full
		// corpus, without ever holding it.
		r := g.rng.Intn(left)
		k := 0
		for r >= remaining[k] {
			r -= remaining[k]
			k++
		}
		remaining[k]--
		left--

		item := g.item(seq, classes[k])
		stats.Items++
		stats.Comments += len(item.Comments)
		if item.Label.IsFraud() {
			stats.Fraud++
		} else {
			stats.Normal++
		}
		if err := emit(&item); err != nil {
			return stats, err
		}
	}
	return stats, nil
}
