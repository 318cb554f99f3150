// Package colfix is a catslint fixture standing in for internal/colfmt:
// a decoder whose StringCol hands out arena-aliased strings. The
// arena-escape fixture imports it so the analyzer resolves the Dec type
// and StringCol structurally, the same way it sees the real colfmt.
package colfix

// Dec is a stand-in decoder over a string arena.
type Dec struct {
	arena string
	off   int
}

// StringCol decodes n strings that alias the arena — valid only while
// the arena's owner keeps it alive.
func (d *Dec) StringCol(n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n && d.off < len(d.arena); i++ {
		out = append(out, d.arena[d.off:d.off+1])
		d.off++
	}
	return out
}
