package core

import (
	"testing"

	"marketminer/internal/strategy"
	"marketminer/internal/taq"
)

// Seams for the external tests (package core_test), which may import
// packages that themselves import core.

// RunPipelineBatchCap is RunPipelineSource with the batch capacity open.
var RunPipelineBatchCap = runPipeline

// QuoteBatchCap is the batch capacity RunPipelineSource uses.
const QuoteBatchCap = quoteBatchCap

// DayForTest returns the test universe, its generated day and the test
// strategy parameters.
func DayForTest(t *testing.T) (*taq.Universe, []taq.Quote, strategy.Params) {
	u := testUniverse(t)
	return u, genQuotes(t, u), pipelineParams()
}
