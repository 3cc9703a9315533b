package farm

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"marketminer/internal/supervise"
	"marketminer/internal/sweep"
)

// FuzzCoordManifest writes arbitrary bytes as the coordinator manifest,
// reads it the way Serve does and, when it loads, restores a fresh
// coordinator core from it over a journal that already holds every
// unit of group 0. Neither may panic, and the restored tables must not
// lose or double a group: each unfinished group is pending exactly once
// or leased, never both, and the finished group is neither. The seeds
// are the v1 fixture, the snapshot a restart on it writes, and a sealed
// manifest whose leases and pending deque repeat, overlap and leave the
// plan.
func FuzzCoordManifest(f *testing.F) {
	c, err := NewCoordinator(CoordinatorConfig{Config: mustFarmConfig(), BlockSize: farmBlockSize,
		JournalPath: filepath.Join(f.TempDir(), "farm.journal")})
	if err != nil {
		f.Fatal(err)
	}
	plan := c.plan
	v1, err := os.ReadFile(filepath.Join("testdata", "v1.coord"))
	if err != nil {
		f.Fatal(err)
	}
	prior, _ := readCoordManifestV1(v1)
	if prior == nil {
		f.Fatal("testdata/v1.coord is not a v1 manifest")
	}
	current := *prior
	current.Epoch++
	hostile := &coordManifest{Epoch: 7, NextSession: 4, NextLease: 9,
		Leases: []coordLease{{Gid: 0, Lease: 1, Gen: 1, Session: 1}, {Gid: 1, Lease: 2, Gen: 3, Session: 1},
			{Gid: 1, Lease: 5, Gen: 4, Session: 2}, {Gid: -1, Lease: 6}, {Gid: plan.NumGroups(), Lease: 7}},
		Pending: []int{1, 2, 2, 0, -3, plan.NumGroups() + 5, 3},
	}
	f.Add(v1)
	for _, m := range []*coordManifest{&current, hostile} {
		path := filepath.Join(f.TempDir(), "seed.coord")
		if err := supervise.SaveSnapshot(path, c.fingerprint, m); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if got, err := readCoordManifest(path, c.fingerprint); err != nil || got == nil || len(got.Leases) == 0 {
			f.Fatalf("seed manifest does not load with its leases: %+v, %v", got, err)
		}
		f.Add(raw)
	}
	done := map[int]int{}
	for k := 0; k < plan.NumParams(); k++ {
		done[plan.UnitID(sweep.Unit{Param: k})] = 1
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "farm.journal.coord")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := readCoordManifest(path, c.fingerprint)
		if err != nil || m == nil {
			return
		}
		st := &coordState{plan: plan, ttl: time.Minute, sessions: map[uint64]string{}}
		st.step(event{kind: evRestore, prior: m, done: done, now: time.Unix(1e9, 0)})
		count := make([]int, len(st.groups))
		for _, gid := range st.pending {
			count[gid]++
		}
		for gid, g := range st.groups {
			held := count[gid]
			if g.lease != 0 {
				held++
			}
			if want := min(len(g.missing), 1); held != want {
				t.Fatalf("group %d with %d missing unit(s) is pending %d time(s) under lease %d after restoring %+v",
					gid, len(g.missing), count[gid], g.lease, m)
			}
		}
	})
}
