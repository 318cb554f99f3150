package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"
)

// The machines this benchmark runs on are shared: for minutes on end the
// same cats job takes a third longer, then it is back (README.md "Host
// speed"). A pure arithmetic loop does not feel those spells; work that
// allocates and walks memory does, by as much as the programs do. So the
// harness times a fixed piece of such work — the yardstick — right before
// and right after everything it measures, and reports each timing as
// what it would have been with the yardstick at its reference speed:
//
//	reported = measured × yardstickRefMS / (yardstick before + after)/2
//
// The yardstick is stdlib code over constants, so no change to the
// repository moves it, and both sides of a comparison are scaled by
// their own run's readings.

// yardstickRefMS is what one yardstick reading takes on the machine
// baseline.json was made on when it is not disturbed. It only fixes the
// unit (seconds of that machine); spreads and ratios do not depend on it.
const yardstickRefMS = 38.0

// yardstickArg makes this binary (or its test binary) do one yardstick
// pass and exit. A reading is a whole child process, exec to exit, like
// the cats jobs it stands beside: a fresh heap each time, and none of the
// harness's own garbage-collector state, which differs from workload to
// workload and phase to phase.
const yardstickArg = "-yardstick-pass"

func init() {
	if len(os.Args) == 2 && os.Args[1] == yardstickArg {
		yardstickPass()
		os.Exit(0)
	}
}

type yardComment struct {
	Text string  `json:"text"`
	User string  `json:"user"`
	Star float64 `json:"star"`
}

type yardItem struct {
	ID       string        `json:"id"`
	Sales    int           `json:"sales"`
	Comments []yardComment `json:"comments"`
}

// yardstickPass is the fixed work: encode a document of 60 items, decode
// it twenty times, then fill a string-keyed map and sort its keys.
func yardstickPass() {
	items := make([]yardItem, 60)
	for i := range items {
		items[i] = yardItem{ID: "item" + strconv.Itoa(i), Sales: 7 * i}
		for j := 0; j < 12; j++ {
			items[i].Comments = append(items[i].Comments, yardComment{
				Text: "好评 很好 不错 物流快 " + strconv.Itoa(i*j),
				User: "u" + strconv.Itoa(i+j),
				Star: float64(j%5) + 0.5,
			})
		}
	}
	doc, err := json.Marshal(items)
	if err != nil {
		panic(err) // constants
	}
	sink := 0
	for k := 0; k < 20; k++ {
		var back []yardItem
		if err := json.Unmarshal(doc, &back); err != nil {
			panic(err)
		}
		sink += len(back)
	}
	const n = 40000
	m := make(map[string]int)
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		k := "k" + strconv.Itoa(i*7919%n)
		m[k] += i
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if sink+len(m)+len(keys[0]) == 0 {
		panic("unreachable: keeps the work alive")
	}
}

// yardstick takes the readings of one run and keeps them.
type yardstick struct {
	h    *harness
	self string
	ms   []float64 // every reading, in order
	err  error     // first failure; checked once, when the run ends
}

func newYardstick(h *harness) *yardstick {
	y := &yardstick{h: h}
	y.self, y.err = os.Executable()
	return y
}

// read takes one reading, in milliseconds. After a failure it returns
// the reference, so the run goes on to report the error.
func (y *yardstick) read() float64 {
	if y.err != nil {
		return yardstickRefMS
	}
	t0 := time.Now()
	c, err := y.h.start(y.self, yardstickArg)
	if err == nil {
		err = c.wait(30 * time.Second)
		y.h.forget(c)
	}
	if err != nil {
		y.err = fmt.Errorf("yardstick pass: %w", err)
		return yardstickRefMS
	}
	v := ms(time.Since(t0))
	y.ms = append(y.ms, v)
	return v
}

// scale is the factor a timing measured between two readings is
// multiplied by (a rate is divided by it).
func scale(before, after float64) float64 {
	return yardstickRefMS / ((before + after) / 2)
}
