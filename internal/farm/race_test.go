//go:build race

package farm

// raceBuild reports a -race build: the explorer's search is one
// goroutine, so the detector only slows it, and it runs its reduced
// bound.
const raceBuild = true
