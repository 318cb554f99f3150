// Package ecom defines the domain model shared by every CATS component:
// shops, items, comments, users and orders, plus the dataset container
// that carries ground-truth labels through the experiments.
//
// The fields mirror the public-domain records the paper's data collector
// scrapes (Section IV-A and Listing 2): shop id/name/url, item
// id/name/price/sales volume, and comment records carrying content, an
// anonymized nickname, the platform's userExpValue reliability score,
// the purchase client and a date.
//
// # The decoder
//
// Items travel as JSON — request bodies into internal/service, JSONL
// lines into internal/dataset — mostly as json.Marshal writes them, but
// from producers CATS does not control (a collector's crawl, another
// platform's export). Decoder reads them in one pass, and means what
// encoding/json means:
//
//   - It accepts what encoding/json's Unmarshal accepts into the same
//     types, as the same values: an unknown key's value skipped but
//     validated, nesting limited to 10,000 levels; a key matched to a tag
//     exactly or folded (ASCII case, ſ and the Kelvin sign), escapes
//     decoded; of a repeated key the last value, a repeated object merged
//     into the first; null leaving a field as it is and a list nil;
//     invalid UTF-8 and a lone surrogate as U+FFFD; a date as
//     time.Time.UnmarshalJSON reads it. Both callers' Fuzz*Differential
//     targets hold it to Unmarshal both ways.
//   - It refuses one input Unmarshal accepts: a list key (items,
//     feedback, comments) repeated after a non-empty list, which
//     encoding/json merges into the first element by element. The error
//     names the key.
//   - Every rejection is its own error, "ecom: offset N: …", N the byte
//     where it stopped: the service's 400 text and, after "dataset: line
//     N: ", the JSONL reader's.
//   - Nothing handed out aliases the input, which belongs to the caller
//     — a pooled request buffer, a scanner's line — and is overwritten
//     once the decode returns. Every string kept is copied into the
//     decoder's arena, which only grows: 64 KiB blocks shared by
//     consecutive lines (Line, for internal/dataset), or one block the
//     size of the request (Body, for internal/service). A retained item
//     pins its block and never its input. A projected read — Line with
//     texts set, and every Body — builds no Comment: each is validated,
//     and of it only its content is kept, as one of the item's Texts
//     (which Line copies out only when the caller asks for them).
package ecom

import (
	"fmt"
	"time"
)

// Label is the ground-truth status of an item.
type Label uint8

// Item labels. The paper distinguishes fraud items backed by hard
// evidence (financial-transaction traces) from those labeled by manual
// expert analysis; Table VI reports metrics for both groupings.
const (
	Normal        Label = iota // not an illegally promoted item
	FraudEvidence              // fraud, backed by sufficient evidence
	FraudManual                // fraud, labeled via expert manual analysis
)

// IsFraud reports whether the label marks a fraud item of either kind.
func (l Label) IsFraud() bool { return l == FraudEvidence || l == FraudManual }

// String returns a human-readable label name.
func (l Label) String() string {
	switch l {
	case Normal:
		return "normal"
	case FraudEvidence:
		return "fraud/evidence"
	case FraudManual:
		return "fraud/manual"
	default:
		return fmt.Sprintf("label(%d)", uint8(l))
	}
}

// Client is the purchase channel recorded on a comment (Listing 2's
// "client information"). Fig 12 compares the client distribution of
// fraud and normal items' orders.
type Client uint8

// Purchase clients observed on the simulated platform.
const (
	ClientWeb Client = iota
	ClientAndroid
	ClientIPhone
	ClientWechat
	numClients
)

// NumClients is the number of distinct purchase clients.
const NumClients = int(numClients)

// String returns the client name as it appears in comment records.
func (c Client) String() string {
	switch c {
	case ClientWeb:
		return "Web"
	case ClientAndroid:
		return "Android"
	case ClientIPhone:
		return "iPhone"
	case ClientWechat:
		return "Wechat"
	default:
		return fmt.Sprintf("client(%d)", uint8(c))
	}
}

// Shop is a third-party shop on an e-commerce platform.
type Shop struct {
	ID   string `json:"shop_id"`
	Name string `json:"shop_name"`
	URL  string `json:"shop_url"`
}

// User is an e-commerce account. ExpValue is the platform-computed
// reliability score ("userExpValue", Table VII): minimum 100, and the
// lower the value the less reliable the account.
type User struct {
	ID       string `json:"user_id"`
	Nickname string `json:"nickname"`
	ExpValue int64  `json:"userExpValue"`
}

// Comment is a single public comment on an item, as collected from the
// platform's public pages (Listing 2).
type Comment struct {
	ID      string    `json:"comment_id"`
	ItemID  string    `json:"item_id"`
	Content string    `json:"comment_content"`
	UserID  string    `json:"user_id"`
	Nick    string    `json:"nickname"`
	ExpVal  int64     `json:"userExpValue"`
	Client  Client    `json:"client_information"`
	Date    time.Time `json:"date"`
}

// Categories are the eight third-party item categories CATS was
// deployed on at Taobao (Section VI).
var Categories = []string{
	"men's clothing", "women's clothing", "men's shoes", "women's shoes",
	"computer & office", "phone & accessories", "food & grocery",
	"sports & outdoors",
}

// Item is a single listed item together with its collected comments.
type Item struct {
	ID          string    `json:"item_id"`
	ShopID      string    `json:"shop_id"`
	Name        string    `json:"item_name"`
	Category    string    `json:"category,omitempty"`
	PriceCents  int64     `json:"price_cents"`
	SalesVolume int       `json:"sales_volume"`
	Comments    []Comment `json:"comments"`

	// Label is ground truth where known (labeled datasets and the
	// synthetic generator); it is never consulted by the detector.
	Label Label `json:"label"`

	// Texts is what a projected read (dataset.Reader.NextTexts, the
	// service's request decoder) keeps of the comments: their contents,
	// in order, with Comments nil. It is not on the wire, so a projected
	// item does not round-trip through JSON: it encodes with no comments.
	// Read contents through AppendTexts, which both shapes answer.
	Texts []string `json:"-"`
}

// AppendTexts appends the item's comment contents, in order, to dst:
// Texts on a projected item, each comment's Content on a row. (An item
// holds one or the other; one holding both answers Texts first.)
func (it *Item) AppendTexts(dst []string) []string {
	dst = append(dst, it.Texts...)
	for i := range it.Comments {
		dst = append(dst, it.Comments[i].Content)
	}
	return dst
}

// Dataset is a labeled collection of items as used throughout the
// paper's evaluation (D0, D1, and the E-platform crawl).
type Dataset struct {
	Name  string
	Items []Item
}

// Stats summarizes a dataset the way Tables IV and V do.
type Stats struct {
	FraudItems    int
	EvidenceFraud int
	ManualFraud   int
	NormalItems   int
	Comments      int
	// RiskyUsers counts distinct users who commented at least one
	// fraud-labeled item; RepeatFraudBuyers those who commented at
	// least two distinct ones (the Table VII funnel). internal/graph
	// reports the same counts from its CSR arrays, so both layers can
	// be cross-checked against each other.
	RiskyUsers        int
	RepeatFraudBuyers int
}

// Stats computes dataset summary counts.
func (d *Dataset) Stats() Stats {
	var s Stats
	fraudItemsByUser := map[string]int{}
	for i := range d.Items {
		it := &d.Items[i]
		switch it.Label {
		case FraudEvidence:
			s.FraudItems++
			s.EvidenceFraud++
		case FraudManual:
			s.FraudItems++
			s.ManualFraud++
		default:
			s.NormalItems++
		}
		s.Comments += len(it.Comments)
		if it.Label.IsFraud() {
			// Distinct commenters only: a user commenting one item
			// twice is one buyer of one item, not a repeat buyer.
			distinct := map[string]bool{}
			for j := range it.Comments {
				uid := it.Comments[j].UserID
				if distinct[uid] {
					continue
				}
				distinct[uid] = true
				switch fraudItemsByUser[uid]++; fraudItemsByUser[uid] {
				case 1:
					s.RiskyUsers++
				case 2:
					s.RepeatFraudBuyers++
				}
			}
		}
	}
	return s
}

// Split partitions the dataset's items by fraud label. The returned
// slices alias the dataset's backing array.
func (d *Dataset) Split() (fraud, normal []*Item) {
	for i := range d.Items {
		if d.Items[i].Label.IsFraud() {
			fraud = append(fraud, &d.Items[i])
		} else {
			normal = append(normal, &d.Items[i])
		}
	}
	return fraud, normal
}

// CommentTexts returns the content strings of all comments of all items.
func (d *Dataset) CommentTexts() []string {
	var out []string
	for i := range d.Items {
		out = d.Items[i].AppendTexts(out)
	}
	return out
}
