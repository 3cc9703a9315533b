// Package explore is the test-only harness that searches a pure
// decision core exhaustively: a depth-first search over every
// interleaving of a model's moves with states deduped by a digest, the
// trace of moves that reached the first violation, the choice between
// a committed bound and its reduced form under -short or -race, and a
// runner for source mutants. A model — the farm coordinator's, the
// broker's — supplies only its world, its moves and its properties.
// Import it from _test.go files only.
package explore

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// Move is one enabled transition of a model, run on a fresh clone.
type Move[S any] struct {
	Name string // for traces; a fmt format over Args, with explicit indexes: "worker %[1]d joins incarnation %[2]d"
	Args [2]int
	Do   func(S) error
}

func (m Move[S]) String() string {
	if !strings.Contains(m.Name, "%") {
		return m.Name
	}
	return fmt.Sprintf(m.Name, m.Args[0], m.Args[1])
}

// Model is what a search needs of a world S.
type Model[S any] struct {
	// Key digests everything in s that can influence later moves.
	Key func(s S) uint64
	// Clone deep-copies s; each move runs on its own clone.
	Clone func(s S) S
	// Moves lists every move enabled in s.
	Moves func(s S) []Move[S]
	// After, when set, runs on a world once its move succeeded: it may
	// settle the world, and its error is a violation.
	After func(s S) error
	// Final, when set, checks a world in which no move is enabled.
	Final func(s S) error
	// Visit, when set, sees every distinct state once.
	Visit func(s S)
}

// Result is one search's outcome.
type Result struct {
	States int
	// Err is the first violation found, and Trace the moves that
	// reached it from the initial world.
	Err   error
	Trace []string
}

// Violation reports the error with its trace, one move per line.
func (r Result) Violation() string {
	if r.Err == nil {
		return ""
	}
	return fmt.Sprintf("%v\nafter %d move(s):\n  %s", r.Err, len(r.Trace), strings.Join(r.Trace, "\n  "))
}

// Search runs a depth-first search over every interleaving from init
// and logs its state count and time under name.
func Search[S any](t testing.TB, name string, m Model[S], init S) Result {
	t.Helper()
	start := time.Now()
	// The search allocates a little per move and keeps almost none of
	// it: collect less often.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	s := &search[S]{Model: m, seen: map[uint64]bool{}}
	s.explore(init)
	t.Logf("explorer %s: %d states in %v", name, s.res.States, time.Since(start).Round(time.Millisecond))
	return s.res
}

type search[S any] struct {
	Model[S]
	seen map[uint64]bool
	path []Move[S]
	res  Result
}

func (s *search[S]) explore(w S) {
	if s.res.Err != nil {
		return
	}
	key := s.Key(w)
	if s.seen[key] {
		return
	}
	s.seen[key] = true
	s.res.States++
	if s.Visit != nil {
		s.Visit(w)
	}
	moves := s.Moves(w)
	if len(moves) == 0 && s.Final != nil {
		s.fail(s.Final(w), nil)
	}
	for _, mv := range moves {
		n := s.Clone(w)
		err := mv.Do(n)
		if err == nil && s.After != nil {
			err = s.After(n)
		}
		if s.fail(err, &mv) {
			return
		}
		s.path = append(s.path, mv)
		s.explore(n)
		s.path = s.path[:len(s.path)-1]
	}
}

// fail records err, when set, with the moves that led to it.
func (s *search[S]) fail(err error, last *Move[S]) bool {
	if err == nil || s.res.Err != nil {
		return err != nil
	}
	s.res.Err = err
	for _, mv := range s.path {
		s.res.Trace = append(s.res.Trace, mv.String())
	}
	if last != nil {
		s.res.Trace = append(s.res.Trace, last.String())
	}
	return true
}

// Reduced reports whether a search should run its reduced bound: under
// -short, and under -race, which only slows a one-goroutine search.
func Reduced() bool { return testing.Short() || raceBuild }

// Mutant runs `go test -run run` on the package in the working
// directory with one mutation: the text old, which must occur exactly
// once in file, replaced by new. The mutated file is a copy handed to
// the build through -overlay, so the package's own files are never
// touched. It returns the test output and whether the tests passed;
// when no go command is at hand it skips t.
func Mutant(t testing.TB, file, old, new, run string) (out string, passed bool) {
	t.Helper()
	goCmd := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goCmd); err != nil {
		if goCmd, err = exec.LookPath("go"); err != nil {
			t.Skip("no go command to build the mutant with")
		}
	}
	abs, err := filepath.Abs(file)
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(abs)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(src), old); n != 1 {
		t.Fatalf("mutation target occurs %d times in %s, want once:\n%s", n, file, old)
	}
	dir := t.TempDir()
	mutated := filepath.Join(dir, filepath.Base(file))
	if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), old, new, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	overlay := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlay, []byte(fmt.Sprintf(`{"Replace":{%q:%q}}`, abs, mutated)), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(goCmd, "test", "-overlay", overlay, "-count=1", "-run", run, ".")
	b, err := cmd.CombinedOutput()
	if _, exited := err.(*exec.ExitError); err != nil && !exited {
		t.Fatalf("running the mutant: %v", err)
	}
	return string(b), err == nil
}
