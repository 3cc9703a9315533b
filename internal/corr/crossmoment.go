package corr

// The online engine keeps its window as one time-major ring: slot s
// (one pushed return vector) is rows[s*stride : (s+1)*stride], stock i
// at column i. Column n holds a constant 1.0 and columns n+1 … stride−1
// hold 0, with stride = n+1 rounded up to 4, so every row is a whole
// number of 4-wide vectors.
//
// A cross-moment table over such a ring holds tab[i*stride + j] =
// Σ_t row_t[i]·row_t[j] summed over the ring's rows in chronological
// order, starting from +0. The diagonal j = i is Σx², the 1.0 column
// j = n is Σx (x·1.0 == x exactly), and j > i is the pair's cross
// moment: the three sums Pearson needs, each added element by element
// in the same order as a lone per-pair loop, so each is bit-identical
// to it. The chronological order is the ring's two segments: the
// slots from the head to the end, then the slots before the head.
//
// Both kernels (crossMomentsGo here, crossMomentsAVX2 in
// crossmoment_amd64.s) fill rows i and i+1 of the table (one row pair)
// for columns i&^3 … stride−1, which covers j ≥ i; the few columns
// left of i and the padding columns are computed and never read.

// crossMomentsGo is the pure-Go cross-moment kernel for the row pair
// (i, i+1) over the ring segments seg0 then seg1 (whole rows of length
// stride). It adds ring rows' products into the two table rows in
// place, four ring rows per pass over the table rows and then one at a
// time, so each table entry is one add chain in chronological order.
// Every product is written float64(x*y), which the Go spec rounds
// before the add, so no port may fuse it into an FMA.
func crossMomentsGo(tab, seg0, seg1 []float64, stride, i int) {
	c := i &^ 3
	ra := tab[i*stride+c : (i+1)*stride]
	rb := tab[(i+1)*stride+c : (i+2)*stride]
	clear(ra)
	clear(rb)
	rb = rb[:len(ra)]
	// col returns ring row r's stocks i and i+1 and its columns c….
	col := func(row []float64) (x, y float64, v []float64) {
		v = row[c:]
		return row[i], row[i+1], v[:len(ra)]
	}
	for _, seg := range [2][]float64{seg0, seg1} {
		o := 0
		for ; o+4*stride <= len(seg); o += 4 * stride {
			x0, y0, v0 := col(seg[o:])
			x1, y1, v1 := col(seg[o+stride:])
			x2, y2, v2 := col(seg[o+2*stride:])
			x3, y3, v3 := col(seg[o+3*stride:])
			for k := range ra {
				a, b := ra[k], rb[k]
				a += float64(x0 * v0[k])
				b += float64(y0 * v0[k])
				a += float64(x1 * v1[k])
				b += float64(y1 * v1[k])
				a += float64(x2 * v2[k])
				b += float64(y2 * v2[k])
				a += float64(x3 * v3[k])
				b += float64(y3 * v3[k])
				ra[k], rb[k] = a, b
			}
		}
		for ; o < len(seg); o += stride {
			x, y, v := col(seg[o:])
			for k := range ra {
				ra[k] += float64(x * v[k])
				rb[k] += float64(y * v[k])
			}
		}
	}
}

// crossMoments fills the table's row pair (i, i+1) with the vector
// kernel when simd is set and the pure-Go kernel otherwise; the two
// are bit-identical. seg0 must be non-empty.
func crossMoments(simd bool, tab, seg0, seg1 []float64, stride, i int) {
	if !simd {
		crossMomentsGo(tab, seg0, seg1, stride, i)
		return
	}
	_ = tab[(i+2)*stride-1]
	p1 := &seg0[0]
	if len(seg1) > 0 {
		p1 = &seg1[0]
	}
	crossMomentsAVX2(&tab[0], &seg0[0], p1, len(seg0)/stride, len(seg1)/stride, stride, i)
}
