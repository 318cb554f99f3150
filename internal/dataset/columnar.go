package dataset

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"repro/internal/colfmt"
	"repro/internal/ecom"
)

// Columnar dataset layout (colfmt container, KindDataset). The stream
// is a sequence of chunks, each holding up to colChunkItems items (or
// fewer when colChunkComments flushes a comment-heavy chunk early).
// Every chunk is three blocks, in order:
//
//	arena      shared string bytes for the whole chunk
//	items      n; id/shop/name/category string cols; price, sales,
//	           label, per-item comment-count numeric cols
//	comments   m; id/content/user/nick string cols; expval, date
//	           (unix nanos) numeric cols; client byte col — comments
//	           concatenated in item order
//
// Decoded strings alias the chunk arena: one allocation per chunk,
// zero per comment, which is what lets arena-backed comment text flow
// into the //cats:hotpath tokenizer uncopied. A chunk's arena stays
// reachable while any of its items is referenced; bounded chunks are
// what keep DetectStream's peak RSS independent of corpus size.
const (
	colChunkItems    = 2048
	colChunkComments = 1 << 15
)

// colWriter accumulates one chunk's columns and flushes it as three
// blocks. Write stages each string's header, not its bytes; flush packs
// the staged strings into the arena. That is safe only because Go
// strings are immutable: the caller may reuse or overwrite the item
// struct at once, and the strings it pointed to keep their bytes. The
// arena and both block encoders are reused from chunk to chunk.
type colWriter struct {
	bw *bufio.Writer
	cw *colfmt.Writer

	arena           colfmt.Arena
	items, comments colfmt.Enc
	// Item columns. String columns are accumulated as arena end
	// offsets (the writer half of colfmt's StringCol layout needs the
	// strings contiguous per column, so they are staged as slices and
	// arena-packed at flush).
	ids, shops, names, cats []string
	prices, sales           []int64
	labels                  []byte
	ncomments               []int

	// Comment columns, concatenated in item order.
	cids, contents, users, nicks []string
	expvals, dates               []int64
	clients                      []byte
}

func newColWriter(w io.Writer) *colWriter {
	return &colWriter{bw: bufio.NewWriterSize(w, 1<<16)}
}

func (c *colWriter) write(item *ecom.Item) error {
	if c.cw == nil {
		cw, err := colfmt.NewWriter(c.bw, colfmt.KindDataset)
		if err != nil {
			return fmt.Errorf("dataset: %w", err)
		}
		c.cw = cw
	}
	c.ids = append(c.ids, item.ID)
	c.shops = append(c.shops, item.ShopID)
	c.names = append(c.names, item.Name)
	c.cats = append(c.cats, item.Category)
	c.prices = append(c.prices, item.PriceCents)
	c.sales = append(c.sales, int64(item.SalesVolume))
	c.labels = append(c.labels, byte(item.Label))
	c.ncomments = append(c.ncomments, len(item.Comments))
	for i := range item.Comments {
		cm := &item.Comments[i]
		c.cids = append(c.cids, cm.ID)
		c.contents = append(c.contents, cm.Content)
		c.users = append(c.users, cm.UserID)
		c.nicks = append(c.nicks, cm.Nick)
		c.expvals = append(c.expvals, cm.ExpVal)
		c.dates = append(c.dates, cm.Date.UnixNano())
		c.clients = append(c.clients, byte(cm.Client))
	}
	if len(c.ids) >= colChunkItems || len(c.cids) >= colChunkComments {
		return c.flush()
	}
	return nil
}

func (c *colWriter) flush() error {
	if len(c.ids) == 0 {
		return nil
	}
	c.arena.Reset()
	c.items.Reset()
	c.comments.Reset()
	items, comments := &c.items, &c.comments

	items.Uvarint(uint64(len(c.ids)))
	items.StringCol(&c.arena, c.ids)
	items.StringCol(&c.arena, c.shops)
	items.StringCol(&c.arena, c.names)
	items.StringCol(&c.arena, c.cats)
	items.IntCol(c.prices)
	items.IntCol(c.sales)
	items.ByteCol(c.labels)
	items.IntsCol(c.ncomments)

	comments.Uvarint(uint64(len(c.cids)))
	comments.StringCol(&c.arena, c.cids)
	comments.StringCol(&c.arena, c.contents)
	comments.StringCol(&c.arena, c.users)
	comments.StringCol(&c.arena, c.nicks)
	comments.IntCol(c.expvals)
	comments.IntCol(c.dates)
	comments.ByteCol(c.clients)

	c.cw.WriteBlock("arena", c.arena.Bytes())
	c.cw.WriteBlock("items", items.Bytes())
	c.cw.WriteBlock("comments", comments.Bytes())

	c.ids, c.shops, c.names, c.cats = c.ids[:0], c.shops[:0], c.names[:0], c.cats[:0]
	c.prices, c.sales, c.labels, c.ncomments = c.prices[:0], c.sales[:0], c.labels[:0], c.ncomments[:0]
	c.cids, c.contents, c.users, c.nicks = c.cids[:0], c.contents[:0], c.users[:0], c.nicks[:0]
	c.expvals, c.dates, c.clients = c.expvals[:0], c.dates[:0], c.clients[:0]
	return c.cw.Err()
}

func (c *colWriter) finish() error {
	if c.cw == nil {
		// Zero items written: still emit a valid (empty) container so
		// the file round-trips.
		cw, err := colfmt.NewWriter(c.bw, colfmt.KindDataset)
		if err != nil {
			return fmt.Errorf("dataset: %w", err)
		}
		c.cw = cw
	}
	if err := c.flush(); err != nil {
		return err
	}
	return c.bw.Flush()
}

// colReader decodes chunks lazily, serving items one at a time.
type colReader struct {
	r         *colfmt.Reader
	items     []ecom.Item
	ncomments []int // per-item comment counts for the current chunk
	idx       int

	// texts makes the read projected: a chunk's comment block yields
	// only contents, its contents column in item order, and items have
	// no Comments; off is where the item at idx starts in contents.
	texts    bool
	contents []string
	off      int
}

func newColReader(r io.Reader, texts bool) (*colReader, error) {
	cr, err := colfmt.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	if cr.Kind() != colfmt.KindDataset {
		return nil, fmt.Errorf("dataset: container kind %d is not a dataset", cr.Kind())
	}
	return &colReader{r: cr, texts: texts}, nil
}

// next hands out the following item of the current chunk — on a
// projected read with its Texts — loading the next chunk when the slice
// runs dry. One pointer move per call: the streaming corpus loop lives
// here.
//
//cats:hotpath
func (c *colReader) next(keep func(*ecom.Item) bool) (*ecom.Item, error) {
	for c.idx >= len(c.items) {
		if err := c.loadChunk(); err != nil {
			return nil, err
		}
	}
	item := &c.items[c.idx]
	if c.texts {
		end := c.off + c.ncomments[c.idx]
		if keep == nil || keep(item) {
			item.Texts = c.contents[c.off:end:end]
		}
		c.off = end
	}
	c.idx++
	return item, nil
}

// loadChunk reads the next arena/items/comments block triple. Unknown
// block names are skipped for forward compatibility.
//
// The arena is read straight into the string every value of the chunk
// aliases (NextArena): one allocation per chunk, no other copy. Every
// chunk gets a fresh arena string, item slice and comment (or contents)
// slice; nothing of the previous chunk is reused or overwritten. Items
// already handed out therefore stay intact while a later chunk loads,
// which is what lets core.DetectStream read ahead on one goroutine
// while another still scores items of the chunk before (the JSONL
// reader copies what it keeps of a line and has the same property).
func (c *colReader) loadChunk() error {
	c.items, c.idx = nil, 0
	var arena string
	partial := false
	for {
		name, payload, err := c.r.NextArena(&arena)
		if err == io.EOF {
			if partial {
				return fmt.Errorf("dataset: truncated container: chunk ended before its comment block")
			}
			return io.EOF
		}
		if err != nil {
			return fmt.Errorf("dataset: %w", err)
		}
		switch name {
		case "arena":
			partial = true
		case "items":
			if err := c.decodeItems(payload, arena); err != nil {
				return err
			}
			partial = true
		case "comments":
			if err := c.decodeComments(payload, arena); err != nil {
				return err
			}
			return nil // chunk complete
		default:
			continue
		}
	}
}

func (c *colReader) decodeItems(payload []byte, arena string) error {
	var (
		n                       int
		ids, shops, names, cats []string
		prices, sales           []int64
		labels                  []byte
		ncomments               []int
	)
	if err := c.r.Decode("items", payload, func(d *colfmt.Dec) {
		n = int(d.Uvarint())
		ids = d.StringCol(arena)
		shops = d.StringCol(arena)
		names = d.StringCol(arena)
		cats = d.StringCol(arena)
		prices = d.IntCol()
		sales = d.IntCol()
		labels = d.ByteCol()
		ncomments = d.IntsCol()
	}); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	if len(ids) != n || len(shops) != n || len(names) != n || len(cats) != n ||
		len(prices) != n || len(sales) != n || len(labels) != n || len(ncomments) != n {
		return fmt.Errorf("dataset: item block columns disagree with %d items", n)
	}
	for i, nc := range ncomments {
		if nc < 0 {
			return fmt.Errorf("dataset: item %d has negative comment count %d", i, nc)
		}
	}
	c.items = make([]ecom.Item, n)
	fillItems(c.items, ids, shops, names, cats, prices, sales, labels)
	c.ncomments = ncomments
	return nil
}

// fillItems transposes the decoded columns into the chunk's item
// structs: one struct store per row, nothing allocated.
//
//cats:hotpath
func fillItems(items []ecom.Item, ids, shops, names, cats []string, prices, sales []int64, labels []byte) {
	for i := range items {
		items[i] = ecom.Item{
			ID:          ids[i],
			ShopID:      shops[i],
			Name:        names[i],
			Category:    cats[i],
			PriceCents:  prices[i],
			SalesVolume: int(sales[i]),
			Label:       ecom.Label(labels[i]),
		}
	}
}

// col decodes one column of a block, of length n: built by read, or
// with build unset only validated by skip (colfmt's Skip forms make
// every check the building ones do).
func col[T any](build bool, read func() []T, skip func() int) (c []T, n int) {
	if !build {
		return nil, skip()
	}
	c = read()
	return c, len(c)
}

// decodeComments decodes a chunk's comment block. The column order is
// written here once; the projection only decides which columns besides
// contents are built, so both reads accept and reject the same bytes.
func (c *colReader) decodeComments(payload []byte, arena string) error {
	if c.items == nil {
		return fmt.Errorf("dataset: comment block before item block")
	}
	var (
		m, n0, n1, n2, n3, n4, n5, n6 int
		ids, contents, users, nicks   []string
		expvals, dates                []int64
		clients                       []byte
	)
	if err := c.r.Decode("comments", payload, func(d *colfmt.Dec) {
		str := func() []string { return d.StringCol(arena) }
		skipStr := func() int { return d.SkipStringCol(arena) }
		rows := !c.texts
		m = int(d.Uvarint())
		ids, n0 = col(rows, str, skipStr)
		contents, n1 = col(true, str, skipStr)
		users, n2 = col(rows, str, skipStr)
		nicks, n3 = col(rows, str, skipStr)
		expvals, n4 = col(rows, d.IntCol, d.SkipIntCol)
		dates, n5 = col(rows, d.IntCol, d.SkipIntCol)
		clients, n6 = col(rows, d.ByteCol, d.SkipByteCol)
	}); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	if n0 != m || n1 != m || n2 != m || n3 != m || n4 != m || n5 != m || n6 != m {
		return fmt.Errorf("dataset: comment block columns disagree with %d comments", m)
	}
	total := 0
	for _, nc := range c.ncomments {
		total += nc
	}
	if total != m {
		return fmt.Errorf("dataset: item comment counts sum to %d but chunk has %d comments", total, m)
	}
	if c.texts {
		c.contents, c.off = contents, 0
		return nil
	}
	// One backing slice for the chunk; items slice into it.
	comments := make([]ecom.Comment, m)
	fillComments(comments, ids, contents, users, nicks, expvals, dates, clients)
	off := 0
	for i := range c.items {
		nc := c.ncomments[i]
		if nc > 0 {
			c.items[i].Comments = comments[off : off+nc : off+nc]
			for j := range c.items[i].Comments {
				c.items[i].Comments[j].ItemID = c.items[i].ID
			}
		}
		off += nc
	}
	return nil
}

// fillComments transposes the decoded columns into the chunk's shared
// comment slice: one struct store per row, nothing allocated.
//
//cats:hotpath
func fillComments(comments []ecom.Comment, ids, contents, users, nicks []string, expvals, dates []int64, clients []byte) {
	for i := range comments {
		comments[i] = ecom.Comment{
			ID:      ids[i],
			Content: contents[i],
			UserID:  users[i],
			Nick:    nicks[i],
			ExpVal:  expvals[i],
			Client:  ecom.Client(clients[i]),
			Date:    time.Unix(0, dates[i]).UTC(),
		}
	}
}
