// Package market is the synthetic market simulator standing in for the
// paper's proprietary NYSE TAQ dataset (March 2008, 61 liquid stocks).
//
// The generator reproduces the statistical features the experiments
// depend on, not any particular historical path:
//
//   - a multi-factor latent price process (market + sector factors)
//     so that sector-mate pairs are highly correlated, like the
//     paper's Exxon/Chevron and UPS/FedEx examples;
//   - transient correlation breakdowns: one leg of a pair temporarily
//     decouples and then mean-reverts, the divergence-and-retracement
//     pattern the trading strategy exploits;
//   - irregular Poisson quote arrivals with realistic spreads/sizes;
//   - contaminated ticks (fat-finger errors, test quotes with zero
//     size, far-out limit orders) at a configurable rate, since
//     outlier sensitivity is what separates Pearson from Maronna.
//
// All randomness is derived from Config.Seed; day d of a dataset is
// generated by an rng seeded from (Seed, d), so individual days can be
// produced independently and in parallel. Within a day the rng order
// is fixed and exists once, in GenerateByStock: the latent paths second
// by second, the breakdown events stock by stock, then each stock's
// quotes in ascending time, so every way of consuming a day sees the
// same bytes. GenerateByStock hands each stock's quotes over as they
// are drawn (backtest.PrepareDay cleans and samples them stock by
// stock). GenerateDay and StreamDay gather the runs into one buffer and
// merge them into one day-wide stream in ascending SeqTime, equal times
// in stock order, the form the online pipeline, mmfeed and mmgen
// consume: GenerateDay returns the stream as a slice, and StreamDay
// hands it over quote by quote without a second copy of the day.
package market

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"marketminer/internal/taq"
)

// Config parameterises the simulator.
type Config struct {
	// Universe is the stock universe (defaults to taq.DefaultUniverse).
	Universe *taq.Universe
	// Seed drives all randomness.
	Seed int64
	// Days is the number of trading days in the dataset (paper: 20).
	Days int
	// QuoteRate is the mean quote arrival rate per stock per second.
	QuoteRate float64
	// Vol is the per-second log-return volatility of the latent mid.
	Vol float64
	// MarketBeta is every stock's loading on the market factor.
	MarketBeta float64
	// SectorBeta is the loading on the stock's sector factor; sector
	// mates end up with correlation ≈ (β_m²+β_s²)/(β_m²+β_s²+1).
	SectorBeta float64
	// NumSectors partitions the universe into factor groups.
	NumSectors int
	// HalfSpreadBps is the typical half-spread in basis points.
	HalfSpreadBps float64
	// BreakdownsPerDay is the expected number of correlation
	// breakdown events per stock per day.
	BreakdownsPerDay float64
	// BreakdownLen is the mean event length in seconds.
	BreakdownLen float64
	// BreakdownMag is the peak transient dislocation as a fraction of
	// price (e.g. 0.004 = 40 bps).
	BreakdownMag float64
	// Contamination is the probability that any emitted quote is
	// corrupted into a bad tick.
	Contamination float64
	// MeanRevRate is the per-second Ornstein–Uhlenbeck reversion rate
	// of each stock's transient mispricing component. Liquid
	// fundamentally-linked pairs (the paper's Exxon/Chevron class)
	// have mean-reverting intraday spreads; this is what gives the
	// §III retracement exit positive expected capture.
	MeanRevRate float64
	// MeanRevVol is the per-second volatility of the mispricing
	// component (its stationary std is MeanRevVol/√(2·MeanRevRate)).
	MeanRevVol float64
	// LiquiditySpread makes per-stock quote rates heterogeneous:
	// stock i's rate is QuoteRate scaled by a log-uniform factor in
	// [1/LiquiditySpread, LiquiditySpread]. 1 (or 0) means uniform.
	// The paper notes "many stocks are not liquid enough (too few
	// trades) to be considered in our style of pair trading" —
	// illiquid names stress the forward-fill and robust-correlation
	// paths.
	LiquiditySpread float64
}

// DefaultConfig mirrors the paper's setting: 61 stocks, 20 trading
// days, lively quote flow, and visibly contaminated raw data.
func DefaultConfig() Config {
	return Config{
		Universe:         taq.DefaultUniverse(),
		Seed:             20080301,
		Days:             20,
		QuoteRate:        0.5,
		Vol:              2.0e-4,
		MarketBeta:       0.7,
		SectorBeta:       1.3,
		NumSectors:       8,
		HalfSpreadBps:    2.5,
		BreakdownsPerDay: 6,
		BreakdownLen:     900, // ~15 minutes
		BreakdownMag:     0.004,
		Contamination:    0.004,
		MeanRevRate:      1.0 / 240, // ~3-minute reversion half-life
		MeanRevVol:       1.5e-4,    // stationary mispricing std ≈ 16 bps
		// The paper's universe is "61 highly liquid US stocks", so the
		// default tiering is mild; widen it (e.g. to 3+) to stress the
		// forward-fill and robust-correlation paths with stale names.
		LiquiditySpread: 1.5,
	}
}

// sanitize fills zero fields from the default configuration.
func (c Config) sanitize() Config {
	d := DefaultConfig()
	if c.Universe == nil {
		c.Universe = d.Universe
	}
	if c.Days <= 0 {
		c.Days = d.Days
	}
	if c.QuoteRate <= 0 {
		c.QuoteRate = d.QuoteRate
	}
	if c.Vol <= 0 {
		c.Vol = d.Vol
	}
	if c.MarketBeta == 0 {
		c.MarketBeta = d.MarketBeta
	}
	if c.SectorBeta == 0 {
		c.SectorBeta = d.SectorBeta
	}
	if c.NumSectors <= 0 {
		c.NumSectors = d.NumSectors
	}
	if c.HalfSpreadBps <= 0 {
		c.HalfSpreadBps = d.HalfSpreadBps
	}
	if c.BreakdownLen <= 0 {
		c.BreakdownLen = d.BreakdownLen
	}
	if c.BreakdownMag <= 0 {
		c.BreakdownMag = d.BreakdownMag
	}
	if c.MeanRevRate <= 0 {
		c.MeanRevRate = d.MeanRevRate
	}
	if c.MeanRevVol <= 0 {
		c.MeanRevVol = d.MeanRevVol
	}
	if c.LiquiditySpread < 1 {
		c.LiquiditySpread = 1
	}
	return c
}

// Generator produces synthetic trading days.
type Generator struct {
	cfg    Config
	n      int
	sector []int     // sector id per stock
	base   []float64 // opening price per stock
	rate   []float64 // per-stock quote rate (liquidity tier)
}

// NewGenerator validates cfg and assigns sectors and opening prices
// deterministically from the seed.
func NewGenerator(cfg Config) (*Generator, error) {
	cfg = cfg.sanitize()
	n := cfg.Universe.Len()
	if n < 2 {
		return nil, errors.New("market: universe needs at least 2 stocks")
	}
	if cfg.Contamination < 0 || cfg.Contamination >= 1 {
		return nil, fmt.Errorf("market: contamination %v outside [0,1)", cfg.Contamination)
	}
	g := &Generator{cfg: cfg, n: n, sector: make([]int, n), base: make([]float64, n), rate: make([]float64, n)}
	rng := rand.New(rand.NewSource(cfg.Seed))
	logSpread := math.Log(cfg.LiquiditySpread)
	for i := 0; i < n; i++ {
		g.sector[i] = i % cfg.NumSectors
		// Log-uniform opening prices in roughly $10–$250.
		g.base[i] = 10 * math.Exp(rng.Float64()*math.Log(25))
		// Log-uniform liquidity tier in [rate/spread, rate·spread].
		g.rate[i] = cfg.QuoteRate * math.Exp((2*rng.Float64()-1)*logSpread)
	}
	return g, nil
}

// SyntheticDay generates day `day` of DefaultConfig, reseeded with
// seed, over the first `stocks` default symbols (2 ≤ stocks ≤ 61).
func SyntheticDay(stocks int, seed int64, day int) ([]taq.Quote, *taq.Universe, error) {
	if stocks < 2 || stocks > 61 {
		return nil, nil, fmt.Errorf("stocks must be in [2, 61]")
	}
	uni, err := taq.NewUniverse(taq.DefaultSymbols()[:stocks])
	if err != nil {
		return nil, nil, err
	}
	cfg := DefaultConfig()
	cfg.Universe = uni
	cfg.Seed = seed
	cfg.Days = day + 1
	gen, err := NewGenerator(cfg)
	if err != nil {
		return nil, nil, err
	}
	md, err := gen.GenerateDay(day)
	if err != nil {
		return nil, nil, err
	}
	return md.Quotes, uni, nil
}

// quoteCapacity is the size of the buffer gatherRuns gathers a day's
// runs into, so that filling it never regrows. The day's count is
// Poisson with mean λ = Σ rate[i] · TradingDaySec — the per-stock
// tiers, not the nominal n · QuoteRate, which a seed's tiering moves
// by several percent — so λ + 6√λ is exceeded about once in 10⁹ days,
// for well under 1 % slack on a full-size day.
func (g *Generator) quoteCapacity() int {
	var lambda float64
	for _, r := range g.rate {
		lambda += r * taq.TradingDaySec
	}
	return poissonCapacity(lambda)
}

// StockQuoteCapacity is the same bound for the most liquid stock alone:
// a buffer of this size holds any one stock's quotes of a day without
// regrowing.
func (g *Generator) StockQuoteCapacity() int {
	var rate float64
	for _, r := range g.rate {
		rate = math.Max(rate, r)
	}
	return poissonCapacity(rate * taq.TradingDaySec)
}

// poissonCapacity returns λ + 6√λ + 1 rounded down: a Poisson(λ) count
// exceeds it about once in 10⁹ draws.
func poissonCapacity(lambda float64) int {
	return int(lambda+6*math.Sqrt(lambda)) + 1
}

// Config returns the sanitised configuration in effect.
func (g *Generator) Config() Config { return g.cfg }

// breakdown is one transient dislocation applied to a single stock.
type breakdown struct {
	stock    int
	start    int // second of day
	duration int // seconds
	mag      float64
}

// offset returns the multiplicative log-price dislocation at second t:
// a fast ramp to ±mag, a hold, then exponential decay back to zero —
// the divergence-then-retracement shape of §III.
func (b breakdown) offset(t int) float64 {
	if t < b.start || b.duration <= 0 {
		return 0
	}
	dt := t - b.start
	ramp := b.duration / 10
	if ramp < 1 {
		ramp = 1
	}
	switch {
	case dt < ramp:
		return b.mag * float64(dt) / float64(ramp)
	case dt < b.duration:
		return b.mag
	default:
		// Decay with time constant of a quarter of the event length.
		tau := float64(b.duration) / 4
		return b.mag * math.Exp(-float64(dt-b.duration)/tau)
	}
}

// apply dislocates the stock's row of per-second mids.
func (b breakdown) apply(row []float32) {
	for t := b.start; t < len(row) && t <= b.start+4*b.duration; t++ {
		row[t] = float32(float64(row[t]) * math.Exp(b.offset(t)))
	}
}

// Day is one generated trading day.
type Day struct {
	Index int
	// Quotes is the day's stream from GenerateDay: ascending SeqTime;
	// equal times in stock order. GenerateByStock and StreamDay leave
	// it nil.
	Quotes []taq.Quote
	// Mid holds the latent (uncontaminated) mid price per stock per
	// second — the ground truth against which cleaning and sampling
	// can be validated in tests.
	Mid [][]float32
	// NumBad counts intentionally corrupted quotes.
	NumBad int
}

// GenerateDay produces day d (0-based) as one stream, ascending
// SeqTime; equal times in stock order: GenerateByStock's runs gathered
// into one buffer and merged into a second, so the day is briefly held
// twice. Each day is independent given (seed, d) and may be generated
// concurrently with other days.
func (g *Generator) GenerateDay(d int) (*Day, error) {
	day, runs, err := g.gatherRuns(d)
	if err != nil {
		return nil, err
	}
	_, _, n := span(runs)
	day.Quotes = make([]taq.Quote, n)
	mergeInto(day.Quotes, runs)
	return day, nil
}

// StreamDay produces day d (0-based) and calls emit for each of its
// quotes in GenerateDay's order (ascending SeqTime; equal times in
// stock order) without holding a second copy of the day:
// GenerateByStock's runs gathered into one buffer and merged. emit must not retain q; its first error
// stops the day and is returned. The returned Day has Mid and NumBad
// set and no Quotes.
func (g *Generator) StreamDay(d int, emit func(q *taq.Quote) error) (*Day, error) {
	day, runs, err := g.gatherRuns(d)
	if err != nil {
		return nil, err
	}
	return day, mergeRuns(runs, emit)
}

// gatherRuns draws day d through GenerateByStock into one buffer of
// quoteCapacity, so filling it never regrows, and returns each stock's
// run, in stock order, as a slice of that buffer.
func (g *Generator) gatherRuns(d int) (*Day, [][]taq.Quote, error) {
	runs := make([][]taq.Quote, 0, g.n)
	start := 0
	day, err := g.GenerateByStock(d,
		func() []taq.Quote { return make([]taq.Quote, 0, g.quoteCapacity()) },
		func(_ int, q []taq.Quote) []taq.Quote {
			runs = append(runs, q[start:])
			start = len(q)
			return q
		})
	return day, runs, err
}

// GenerateByStock draws day d (0-based) stock by stock. All of the
// day's randomness comes from one rng seeded by (Seed, d), drawn in a
// fixed order: the latent paths second by second, the breakdown events
// stock by stock, then each stock's quotes in ascending time.
//
// Once the mids are drawn, first() returns the slice stock 0's quotes
// are appended to; it is called only then, so a large buffer is not
// allocated before the mids. Once stock i's quotes are drawn, fn(i,
// quotes) is called, for i in index order, with stock i's quotes
// appended in ascending SeqTime to the current slice. fn returns the
// slice the next stock's quotes are appended to: quotes itself to
// gather the whole day (GenerateDay, StreamDay), or an empty buffer
// to hand each stock's run off on its own. The returned Day has Mid
// and NumBad set and no Quotes.
//
// The calling goroutine only draws. One helper goroutine, which never
// touches the rng, exponentiates the drawn log-prices into the mids
// and applies each stock's breakdowns; the quote draw waits for stock
// i's row only.
func (g *Generator) GenerateByStock(d int, first func() []taq.Quote, fn func(i int, quotes []taq.Quote) []taq.Quote) (*Day, error) {
	if d < 0 || d >= g.cfg.Days {
		return nil, fmt.Errorf("market: day %d outside dataset of %d days", d, g.cfg.Days)
	}
	rng := rand.New(rand.NewSource(g.cfg.Seed + int64(d)*7919))
	n := g.n
	secs := taq.TradingDaySec

	// The latent log-prices go out in second-major chunks to
	// finishMids, which exponentiates them into the per-second mids
	// and then applies each stock's breakdowns, stock by stock, ahead
	// of the quote draw.
	mid := make([][]float32, n)
	for i := range mid {
		mid[i] = make([]float32, secs)
	}
	chunks := make(chan pathChunk, 1)
	free := make(chan []float64, 2) // the two chunk buffers: one drawn into, one exponentiated
	for k := 0; k < cap(free); k++ {
		free <- make([]float64, chunkSecs*n)
	}
	events := make(chan []breakdown, 1)
	ready := make(chan struct{}, n) // one per stock whose mids are final
	go g.finishMids(mid, chunks, free, events, ready)

	// Latent log-price paths from the factor model; only the current
	// log-price of each stock is kept.
	logp := make([]float64, n)
	for i := range logp {
		logp[i] = math.Log(g.base[i] * (1 + 0.01*rng.NormFloat64()))
	}
	norm := math.Sqrt(g.cfg.MarketBeta*g.cfg.MarketBeta + g.cfg.SectorBeta*g.cfg.SectorBeta + 1)
	sectorShock := make([]float64, g.cfg.NumSectors)
	// Per-stock transient mispricing: an Ornstein–Uhlenbeck process
	// layered on the factor random walk. Pair spreads inherit its
	// mean reversion, which is the economic source of the strategy's
	// retracement capture.
	misp := make([]float64, n)
	kappa := g.cfg.MeanRevRate
	for t0 := 0; t0 < secs; t0 += chunkSecs {
		buf := <-free
		t1 := min(t0+chunkSecs, secs)
		if t0 == 0 {
			copy(buf, logp)
		}
		for t := max(t0, 1); t < t1; t++ {
			mkt := rng.NormFloat64()
			for s := range sectorShock {
				sectorShock[s] = rng.NormFloat64()
			}
			row := buf[(t-t0)*n : (t-t0+1)*n]
			for i := range row {
				z := g.cfg.MarketBeta*mkt + g.cfg.SectorBeta*sectorShock[g.sector[i]] + rng.NormFloat64()
				// The increment carries the fundamental diffusion plus
				// the *change* in mispricing, so the observed price is
				// fundamental + mispricing and the mispricing decays
				// instead of accumulating. The sum runs left to right
				// from the previous log-price; `+=` would add the two
				// increments together first and change the bits.
				old := misp[i]
				misp[i] += -kappa*misp[i] + g.cfg.MeanRevVol*rng.NormFloat64()
				logp[i] = logp[i] + g.cfg.Vol*z/norm + (misp[i] - old)
				row[i] = logp[i]
			}
		}
		chunks <- pathChunk{t0: t0, logp: buf[:(t1-t0)*n]}
	}
	close(chunks)

	// Breakdown events, stock by stock.
	var evs []breakdown
	expected := g.cfg.BreakdownsPerDay
	for i := 0; i < n; i++ {
		for k := 0; k < poisson(rng, expected); k++ {
			dur := int(g.cfg.BreakdownLen * (0.5 + rng.Float64()))
			start := rng.Intn(secs - dur - secs/10)
			mag := g.cfg.BreakdownMag * (0.5 + rng.Float64())
			if rng.Intn(2) == 0 {
				mag = -mag
			}
			evs = append(evs, breakdown{stock: i, start: start, duration: dur, mag: mag})
		}
	}
	events <- evs

	day := &Day{Index: d, Mid: mid}

	// Quote arrivals: Poisson per stock, so each stock's run is in
	// ascending time. Stock 0's row is final only once every mid is
	// written, so first() still runs after the mids exist.
	<-ready
	quotes := first()
	for i := 0; i < n; i++ {
		if i > 0 {
			<-ready
		}
		sym := g.cfg.Universe.Symbol(i)
		t := 0.0
		for {
			t += rng.ExpFloat64() / g.rate[i]
			if t >= float64(secs) {
				break
			}
			q := g.quoteAt(rng, sym, i, t, mid[i][int(t)])
			if g.cfg.Contamination > 0 && rng.Float64() < g.cfg.Contamination {
				q = corrupt(rng, q)
				day.NumBad++
			}
			q.Day = d
			quotes = append(quotes, q)
		}
		quotes = fn(i, quotes)
	}
	return day, nil
}

// chunkSecs is the number of seconds of log-prices in one pathChunk:
// with two chunks in flight a 400-stock day holds 1.6 MB of them.
const chunkSecs = 256

// pathChunk holds the log-prices of seconds t0, t0+1, … of every
// stock, second-major: logp[(t−t0)·n + i] is stock i's at second t.
type pathChunk struct {
	t0   int
	logp []float64
}

// finishMids is GenerateByStock's helper goroutine. It exponentiates
// each chunk into mid and returns its buffer to free; once chunks is
// closed it takes the day's breakdown events, in drawn order (stock by
// stock), applies each stock's dislocations to its row and then sends
// one value on ready, for stocks in index order.
func (g *Generator) finishMids(mid [][]float32, chunks <-chan pathChunk, free chan<- []float64, events <-chan []breakdown, ready chan<- struct{}) {
	n := len(mid)
	for c := range chunks {
		secs := len(c.logp) / n
		for i, row := range mid {
			row = row[c.t0 : c.t0+secs]
			for k := range row {
				row[k] = float32(math.Exp(c.logp[k*n+i]))
			}
		}
		free <- c.logp[:cap(c.logp)]
	}
	evs := <-events
	for i, row := range mid {
		for ; len(evs) > 0 && evs[0].stock == i; evs = evs[1:] {
			evs[0].apply(row)
		}
		ready <- struct{}{}
	}
}

// quoteAt builds a clean quote around the latent mid.
func (g *Generator) quoteAt(rng *rand.Rand, sym string, i int, t float64, latent float32) taq.Quote {
	m := float64(latent)
	half := m * g.cfg.HalfSpreadBps * 1e-4 * (0.6 + 0.8*rng.Float64())
	// Microstructure noise: the quoted mid wobbles inside the spread.
	noise := half * 0.3 * rng.NormFloat64()
	bid := m + noise - half
	ask := m + noise + half
	if bid <= 0 {
		bid = m * 0.99
	}
	if ask <= bid {
		ask = bid + m*1e-4
	}
	return taq.Quote{
		SeqTime: t,
		Symbol:  sym,
		Bid:     round4(bid),
		Ask:     round4(ask),
		BidSize: 1 + int(rng.ExpFloat64()*8),
		AskSize: 1 + int(rng.ExpFloat64()*8),
	}
}

// corrupt turns a clean quote into one of the paper's bad-tick species.
func corrupt(rng *rand.Rand, q taq.Quote) taq.Quote {
	switch rng.Intn(4) {
	case 0: // fat finger: price off by 10x either way
		f := 10.0
		if rng.Intn(2) == 0 {
			f = 0.1
		}
		q.Bid = round4(q.Bid * f)
		q.Ask = round4(q.Ask * f)
	case 1: // test quote: zero sizes
		q.BidSize = 0
		q.AskSize = 0
	case 2: // far-out limit order: absurdly wide ask
		q.Ask = round4(q.Ask * (2 + rng.Float64()*3))
	default: // digit slip on the bid, often crossing the market
		q.Bid = round4(q.Bid * (1 + 0.05*(1+rng.Float64())))
	}
	return q
}

// round4 rounds to 4 decimals, the TAQ price resolution we emit.
func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

// poisson draws a Poisson variate by inversion (λ expected to be
// small; the generator uses it for event counts only).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}
