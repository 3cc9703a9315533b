package main

import (
	"strings"
	"testing"
)

// TestRunWorkRejectsEmptyConnectEntry: a blank entry in -connect (a
// trailing comma, a doubled one) is refused before any dial, instead of
// joining the redial rotation and failing every visit.
func TestRunWorkRejectsEmptyConnectEntry(t *testing.T) {
	for _, connect := range []string{"127.0.0.1:1,", "127.0.0.1:1,,127.0.0.1:2", " "} {
		err := runWork([]string{"-connect", connect, "-quiet"})
		if err == nil || !strings.Contains(err.Error(), "empty address") {
			t.Errorf("-connect %q: runWork returned %v, want an empty-address error", connect, err)
		}
	}
}
