package corr

import (
	"fmt"
	"testing"
)

// benchEngines compares the matrix engine against the per-pair
// reference on an identical day workload, per correlation request.
func benchEngines(b *testing.B, types []Type) {
	rets := marketReturns(b, 10, 20080301)
	cfg := EngineConfig{M: 100, Workers: 1}
	for _, bc := range []struct {
		name string
		run  func() ([]*Series, error)
	}{
		{"matrix", func() ([]*Series, error) { return ComputeSeriesMulti(cfg, types, rets) }},
		{"reference", func() ([]*Series, error) { return ComputeSeriesMultiReference(cfg, types, rets) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMatrixEnginePearsonDay(b *testing.B) {
	benchEngines(b, []Type{Pearson})
}

func BenchmarkMatrixEngineFusedRobustDay(b *testing.B) {
	benchEngines(b, []Type{Maronna, Combined})
}

func BenchmarkMatrixEngineAllTypesDay(b *testing.B) {
	benchEngines(b, []Type{Pearson, Maronna, Combined})
}

// BenchmarkMatrixEngineTileSize exposes the cache-tiling knob so the
// default can be revisited on new hardware.
func BenchmarkMatrixEngineTileSize(b *testing.B) {
	rets := marketReturns(b, 10, 20080301)
	for _, tile := range []int{1, 16, 64, 256, 1 << 30} {
		b.Run(fmt.Sprintf("tile%d", tile), func(b *testing.B) {
			cfg := EngineConfig{M: 100, Workers: 1, TileSize: tile}
			for i := 0; i < b.N; i++ {
				if _, err := ComputeSeriesMulti(cfg, []Type{Pearson}, rets); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOnlinePushPearson is one interval of the online Pearson
// engine at the benchmark's scale: 61 stocks (1830 pairs), M = 100,
// pushing into a reused matrix. "full" is one engine over the whole
// triangle on each tier; "split-P" is the broker's P-partition split,
// P subset engines of one worker each, all pushed per op.
func BenchmarkOnlinePushPearson(b *testing.B) {
	const n, m, T = 61, 100, 400
	rets := syntheticReturns(20080301, n, T)
	vecs := make([][]float64, T)
	for u := range vecs {
		vecs[u] = make([]float64, n)
		for i := range vecs[u] {
			vecs[u][i] = rets[i][u]
		}
	}
	layouts := map[string][]EngineConfig{
		"full":        {{}},
		"full-scalar": {{DisableSIMD: true}},
	}
	for _, parts := range []int{2, 4, 8} {
		var cfgs []EngineConfig
		for _, sel := range brokerSplit(n, parts) {
			cfgs = append(cfgs, EngineConfig{Pairs: sel})
		}
		layouts[fmt.Sprintf("split-%d", parts)] = cfgs
	}
	for name, cfgs := range layouts {
		b.Run(name, func(b *testing.B) {
			engines := make([]*OnlineEngine, len(cfgs))
			for i, cfg := range cfgs {
				cfg.Type, cfg.M, cfg.Workers = Pearson, m, 1
				e, err := NewOnlineEngine(cfg, n)
				if err != nil {
					b.Fatal(err)
				}
				engines[i] = e
			}
			dst := NewMatrix(n)
			push := func(v []float64) {
				for _, e := range engines {
					if _, err := e.PushInto(v, dst); err != nil {
						b.Fatal(err)
					}
				}
			}
			for _, v := range vecs[:m] {
				push(v)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				push(vecs[i%T])
			}
		})
	}
}
