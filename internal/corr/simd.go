package corr

import "sync/atomic"

// SIMD dispatch. Two kernels have a hand-written amd64 AVX2 backend.
// The batched Maronna kernel (pairBatch) executes the weight passes in
// lane-major lockstep: the active lanes' window data is transposed
// into obs-major tiles and four lanes advance per vector instruction,
// each lane's accumulators pinned to its own vector slot. The online
// engine's Pearson cross-moment kernel (crossmoment.go) runs two ring
// columns against 16 columns per pass, one accumulator lane per table
// entry. Because a lane's operation sequence is exactly the pure-Go
// kernel's — same expressions, same order, one IEEE operation per IEEE
// operation, no FMA — each vector path is bit-identical to its pure-Go
// kernel (see DESIGN.md §10 for the full argument).
//
// Dispatch has one rule: the vector tier runs when the build targets
// amd64 and CPUID (AVX2 plus OS YMM-state support) reports it at
// process start. The only way to force the scalar tier is per request,
// via EngineConfig.DisableSIMD, which is what the tests and the bench
// harness use to A/B the tiers inside one process. The scalar fallback
// is the pre-SIMD code, unchanged, so non-amd64 builds and hosts
// without AVX2 lose nothing but speed.

// SIMD dispatch tier names, as reported by SIMDTier.
const (
	// SIMDTierScalar is the pure-Go fallback: the pre-SIMD batched
	// kernel and the pure-Go cross-moment kernel, used on non-amd64
	// builds, hosts without AVX2, and requests with
	// EngineConfig.DisableSIMD set.
	SIMDTierScalar = "scalar"
	// SIMDTierAVX2 is the amd64 AVX2 backend: the 4-wide f64
	// lane-major Maronna kernels and the cross-moment kernel.
	SIMDTierAVX2 = "avx2"
)

// simdSupported reports whether the running host can execute the
// vector kernels at all (resolved once at init by the arch-specific
// detection; constant false on non-amd64 builds).
var simdSupported = simdDetect()

// SIMDTier reports the dispatch tier new batch kernels use unless a
// request sets EngineConfig.DisableSIMD.
func SIMDTier() string {
	if simdSupported {
		return SIMDTierAVX2
	}
	return SIMDTierScalar
}

// simdProfiling gates the pack/run wall-clock telemetry of the SIMD
// batch path (RobustStats.SIMDPackNs / SIMDRunNs). It costs four
// clock reads per batch run, so it is off by default and enabled only
// by TestRatioSIMDPackOverhead to measure the transpose overhead.
var simdProfiling atomic.Bool

// SetSIMDProfiling enables or disables SIMD pack/run wall-clock
// telemetry on batch runs that carry a RobustStats collector.
func SetSIMDProfiling(on bool) { simdProfiling.Store(on) }
