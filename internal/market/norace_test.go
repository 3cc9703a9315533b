//go:build !race

package market

// raceEnabled reports whether the test binary runs under the race
// detector, which slows the generator about tenfold.
const raceEnabled = false
