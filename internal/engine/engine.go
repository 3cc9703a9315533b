// Package engine is the stream-processing runtime of the reproduction —
// the channel-based Go rewrite of MarketMiner's MPI middleware. The
// original system was "a basic MPI-enabled pipeline for processing
// quote data … since extended to support arbitrary directed acyclic
// graph (DAG) stream processing workflows".
//
// A Graph is a DAG of named nodes connected by bounded channels.
// Sources generate messages; processors transform them; sinks consume
// them. Each edge is a Go channel, giving the same point-to-point,
// back-pressured message-passing semantics as the MPI ranks of the
// original, with goroutines standing in for processes:
//
//	g := engine.NewGraph()
//	src := g.Source("collector", sourceFn)
//	ta  := g.Node("technical-analysis", 1, procFn)
//	g.Connect(src, ta, 1024)
//	err := g.Run(ctx)
//
// Run wires the channels, spawns every node, and propagates shutdown:
// when a source returns, its edges close; a node exits after all its
// inputs close; the first error cancels the whole graph.
//
// A hop costs one buffered channel operation: the producer's emit sends
// on the edge and the consumer's worker receives from that same
// channel, each in a select that also watches the graph context. There
// is no goroutine between them; only a node with several inputs has one
// forwarder per in-edge, to merge them. What a message is belongs to
// the nodes: a producer that wants fewer hops sends bigger messages
// (core sends quotes in batches), and Stats counts messages, whatever
// they carry.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Message is one unit of data flowing along an edge. Nodes agree on
// concrete types per edge by convention, as MPI ranks agree on message
// schemas per tag.
type Message any

// Emit sends a message downstream. It returns false when the graph is
// shutting down and the message could not be delivered; nodes should
// stop producing once Emit returns false.
type Emit func(Message) bool

// SourceFunc drives a source node. It should call emit for every
// message and return when the stream ends (or emit returns false).
type SourceFunc func(ctx context.Context, emit Emit) error

// ProcFunc handles one message on a processing or sink node. Emitted
// messages are broadcast to every outgoing edge; sink nodes simply
// never emit.
type ProcFunc func(ctx context.Context, msg Message, emit Emit) error

// node is one vertex of the graph.
type node struct {
	name     string
	id       int
	parallel int
	src      SourceFunc
	proc     ProcFunc
	flush    func(ctx context.Context, emit Emit) error
	ins      []chan Message
	outs     []chan Message
	inCnt    atomic.Int64
	outCnt   atomic.Int64
}

// NodeID identifies a node within its graph.
type NodeID int

// Graph is a DAG under construction; call Run to execute it. A Graph
// is single-use: Run may be called once.
type Graph struct {
	nodes []*node
	names map[string]bool
	edges map[[2]int]bool
	ran   bool
	err   error
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{names: make(map[string]bool), edges: make(map[[2]int]bool)}
}

// fail records a construction error (surfaced by Run).
func (g *Graph) fail(err error) {
	if g.err == nil {
		g.err = err
	}
}

func (g *Graph) addNode(n *node) NodeID {
	if n.name == "" {
		g.fail(errors.New("engine: empty node name"))
	}
	if g.names[n.name] {
		g.fail(fmt.Errorf("engine: duplicate node name %q", n.name))
	}
	g.names[n.name] = true
	n.id = len(g.nodes)
	g.nodes = append(g.nodes, n)
	return NodeID(n.id)
}

// Source adds a source node.
func (g *Graph) Source(name string, fn SourceFunc) NodeID {
	if fn == nil {
		g.fail(fmt.Errorf("engine: nil source func for %q", name))
	}
	return g.addNode(&node{name: name, parallel: 1, src: fn})
}

// Node adds a processing node with the given worker parallelism
// (clamped to ≥ 1). With parallelism > 1, messages are processed
// concurrently and downstream ordering is not preserved — the same
// trade MarketMiner makes when it shards the correlation computation.
func (g *Graph) Node(name string, parallelism int, fn ProcFunc) NodeID {
	if fn == nil {
		g.fail(fmt.Errorf("engine: nil proc func for %q", name))
	}
	if parallelism < 1 {
		parallelism = 1
	}
	return g.addNode(&node{name: name, parallel: parallelism, proc: fn})
}

// OnDrain registers a flush hook invoked after a node's inputs have
// closed and all in-flight messages are processed, but before its
// outgoing edges close. Aggregating nodes (e.g. end-of-day summaries)
// use it to emit their final state.
func (g *Graph) OnDrain(id NodeID, fn func(ctx context.Context, emit Emit) error) {
	n := g.node(id)
	if n == nil {
		return
	}
	if n.src != nil {
		g.fail(fmt.Errorf("engine: OnDrain on source %q", n.name))
		return
	}
	n.flush = fn
}

func (g *Graph) node(id NodeID) *node {
	if int(id) < 0 || int(id) >= len(g.nodes) {
		g.fail(fmt.Errorf("engine: unknown node id %d", id))
		return nil
	}
	return g.nodes[id]
}

// Connect adds a directed edge from → to with the given channel buffer
// (clamped to ≥ 0). Buffering is the back-pressure knob: a full channel
// blocks the producer, exactly like a saturated MPI send queue.
func (g *Graph) Connect(from, to NodeID, buffer int) {
	a := g.node(from)
	b := g.node(to)
	if a == nil || b == nil {
		return
	}
	if a == b {
		g.fail(fmt.Errorf("engine: self-loop on %q", a.name))
		return
	}
	if b.src != nil {
		g.fail(fmt.Errorf("engine: source %q cannot have inputs", b.name))
		return
	}
	key := [2]int{a.id, b.id}
	if g.edges[key] {
		g.fail(fmt.Errorf("engine: duplicate edge %q → %q", a.name, b.name))
		return
	}
	g.edges[key] = true
	if buffer < 0 {
		buffer = 0
	}
	ch := make(chan Message, buffer)
	a.outs = append(a.outs, ch)
	b.ins = append(b.ins, ch)
}

// Stats reports message counts for one node.
type Stats struct {
	Name     string
	Received int64
	Emitted  int64
}

// Stats returns per-node message counters, valid during and after Run.
func (g *Graph) Stats() []Stats {
	out := make([]Stats, len(g.nodes))
	for i, n := range g.nodes {
		out[i] = Stats{Name: n.name, Received: n.inCnt.Load(), Emitted: n.outCnt.Load()}
	}
	return out
}

// DOT renders the graph in Graphviz dot format — the tooling used to
// draw Figure 1. Sources are boxes, processors ellipses; edge labels
// show buffer capacities. Valid before or after Run.
func (g *Graph) DOT(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n", title)
	for _, n := range g.nodes {
		shape := "ellipse"
		if n.src != nil {
			shape = "box"
		}
		fmt.Fprintf(&b, "  %q [shape=%s];\n", n.name, shape)
	}
	// Deterministic edge order: by (from, to) node id.
	keys := make([][2]int, 0, len(g.edges))
	for e := range g.edges {
		keys = append(keys, e)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	for _, e := range keys {
		fmt.Fprintf(&b, "  %q -> %q;\n", g.nodes[e[0]].name, g.nodes[e[1]].name)
	}
	b.WriteString("}\n")
	return b.String()
}

// validate checks graph structure: construction errors, at least one
// source, every processor reachable (has inputs), and acyclicity.
func (g *Graph) validate() error {
	if g.err != nil {
		return g.err
	}
	if len(g.nodes) == 0 {
		return errors.New("engine: empty graph")
	}
	var hasSource bool
	for _, n := range g.nodes {
		if n.src != nil {
			hasSource = true
		} else if len(n.ins) == 0 {
			return fmt.Errorf("engine: node %q has no inputs", n.name)
		}
	}
	if !hasSource {
		return errors.New("engine: no source nodes")
	}
	// Kahn's algorithm over the edge set for cycle detection.
	indeg := make([]int, len(g.nodes))
	adj := make([][]int, len(g.nodes))
	for e := range g.edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		indeg[e[1]]++
	}
	queue := make([]int, 0, len(g.nodes))
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		seen++
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if seen != len(g.nodes) {
		return errors.New("engine: graph has a cycle")
	}
	return nil
}

// Run validates the graph and executes it to completion. It returns
// nil when every node finished cleanly, the first node error otherwise,
// or ctx.Err if the context was cancelled first.
func (g *Graph) Run(ctx context.Context) error {
	if g.ran {
		return errors.New("engine: graph already ran")
	}
	g.ran = true
	if err := g.validate(); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	report := func(err error) {
		if err != nil && !errors.Is(err, context.Canceled) {
			errOnce.Do(func() { firstErr = err })
			cancel()
		}
	}

	for _, n := range g.nodes {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			report(g.runNode(ctx, n, &wg))
		}(n)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// runNode executes one node until its input closes (processors) or its
// source function returns, then closes its outgoing edges. Goroutines
// it starts beyond its workers are added to wg, which Run waits on.
// A worker watches ctx.Done() in the select it receives in, so
// cancellation stops it between messages however full the edge is.
func (g *Graph) runNode(ctx context.Context, n *node, wg *sync.WaitGroup) error {
	defer func() {
		for _, out := range n.outs {
			close(out)
		}
	}()
	done := ctx.Done()
	emit := func(m Message) bool {
		for _, out := range n.outs {
			select {
			case out <- m:
			case <-done:
				return false
			}
		}
		n.outCnt.Add(1)
		return true
	}

	if n.src != nil {
		return safeCall(n.name, func() error { return n.src(ctx, emit) })
	}

	in := mergeInputs(ctx, n, wg)
	var workers sync.WaitGroup
	errCh := make(chan error, n.parallel)
	for w := 0; w < n.parallel; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for {
				var m Message
				var ok bool
				select {
				case m, ok = <-in:
				case <-done:
				}
				if !ok {
					return
				}
				n.inCnt.Add(1)
				if err := safeCall(n.name, func() error { return n.proc(ctx, m, emit) }); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	workers.Wait()
	select {
	case err := <-errCh:
		return err
	default:
	}
	if n.flush != nil {
		if err := safeCall(n.name+" flush", func() error { return n.flush(ctx, emit) }); err != nil {
			return err
		}
	}
	return nil
}

// safeCall runs one node callback, converting a panic into an error so
// a bad message or buggy stage fails the graph cleanly (first-error
// cancellation, every goroutine joined) instead of crashing the
// process. The supervision layer can then decide whether to restart.
func safeCall(name string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Node: name, Value: r, Stack: debug.Stack()}
		}
	}()
	if err := fn(); err != nil {
		return fmt.Errorf("engine: node %q: %w", name, err)
	}
	return nil
}

// PanicError reports a recovered panic from a node callback.
type PanicError struct {
	Node  string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: node %q panicked: %v\n%s", e.Node, e.Value, e.Stack)
}

// mergeInputs returns the channel n's workers receive from: the edge
// itself when n has one input, otherwise an unbuffered channel that one
// forwarder per in-edge (joined through wg) copies into, closed when
// every input has closed or the context is cancelled.
func mergeInputs(ctx context.Context, n *node, wg *sync.WaitGroup) <-chan Message {
	if len(n.ins) == 1 {
		return n.ins[0]
	}
	merged := make(chan Message)
	var fwd sync.WaitGroup
	for _, in := range n.ins {
		fwd.Add(1)
		go func(in <-chan Message) {
			defer fwd.Done()
			for {
				select {
				case m, ok := <-in:
					if !ok {
						return
					}
					select {
					case merged <- m:
					case <-ctx.Done():
						return
					}
				case <-ctx.Done():
					return
				}
			}
		}(in)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		fwd.Wait()
		close(merged)
	}()
	return merged
}
