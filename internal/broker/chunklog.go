package broker

// chunkSize is the element count of one chunkLog chunk: a multiple of
// the default MaxDelta (512), so a subscriber reading full deltas from
// a chunk start never straddles two chunks.
const chunkSize = 4096

// chunkLog is an append-only sequence stored in fixed-size chunks.
// Appending never moves an element already stored, so a day of signals
// costs its own size — not the doubling-and-copying of a flat slice —
// and a subslice handed out stays valid for the life of the log.
type chunkLog[T any] struct {
	chunks [][]T
	n      int
}

func (c *chunkLog[T]) len() int { return c.n }

func (c *chunkLog[T]) append(v T) {
	if c.n == len(c.chunks)*chunkSize {
		c.chunks = append(c.chunks, make([]T, 0, chunkSize))
	}
	last := &c.chunks[len(c.chunks)-1]
	*last = append(*last, v)
	c.n++
}

func (c *chunkLog[T]) at(i int) T { return c.chunks[i/chunkSize][i%chunkSize] }

// appendTo appends elements [lo, hi) to dst.
func (c *chunkLog[T]) appendTo(dst []T, lo, hi int) []T {
	for lo < hi {
		chunk := c.chunks[lo/chunkSize]
		from := lo % chunkSize
		to := min(len(chunk), from+hi-lo)
		dst = append(dst, chunk[from:to]...)
		lo += to - from
	}
	return dst
}

// slice returns elements [lo, hi): the stored elements themselves when
// the range lies in one chunk, a copy when it spans several. Callers
// must not write to the result.
func (c *chunkLog[T]) slice(lo, hi int) []T {
	if lo >= hi {
		return nil
	}
	if first := lo / chunkSize; first == (hi-1)/chunkSize {
		off := first * chunkSize
		return c.chunks[first][lo-off : hi-off : hi-off]
	}
	return c.appendTo(make([]T, 0, hi-lo), lo, hi)
}
