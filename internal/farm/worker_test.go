package farm

import (
	"bytes"
	"context"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"marketminer/internal/feed"
	"marketminer/internal/sweep"
)

// deadAddr binds and immediately closes a listener, yielding an
// address that refuses connections for the rest of the test.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// fakeCoordinator serves worker connections one at a time on a
// loopback listener: it reads each Join, then hands the link to script
// with the 1-based session number, and hangs up when script returns.
func fakeCoordinator(t *testing.T, script func(session int, dec *feed.Decoder, enc *feed.Encoder)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for session := 1; ; session++ {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			dec, enc := feed.NewDecoder(conn), feed.NewEncoder(conn, nil)
			if _, err := dec.Read(); err == nil { // Join
				script(session, dec, enc)
			}
			conn.Close()
		}
	}()
	return l.Addr().String()
}

// TestFarmWorkerComputeErrorIsTerminal: a lease the worker cannot
// compute (a group outside its plan) fails the same way on every
// attempt, so RunWorker returns the error after one session instead of
// redialing forever.
func TestFarmWorkerComputeErrorIsTerminal(t *testing.T) {
	addr := fakeCoordinator(t, func(session int, dec *feed.Decoder, enc *feed.Encoder) {
		if enc.WriteGrant(&feed.Grant{Session: uint64(session), Epoch: 1}) != nil {
			return
		}
		if _, err := dec.Read(); err != nil { // Steal
			return
		}
		if enc.WriteLease(&feed.Lease{ID: 1, Gen: 1, Day: 999, Block: 0, Params: []uint16{0}}) != nil {
			return
		}
		dec.Read() // until the worker hangs up
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st, err := RunWorker(ctx, WorkerConfig{
		Config:      mustFarmConfig(),
		BlockSize:   farmBlockSize,
		Name:        "misled",
		Addr:        addr,
		Backoff:     time.Millisecond,
		MaxAttempts: 3,
	})
	if err == nil || !strings.Contains(err.Error(), "outside plan") {
		t.Fatalf("RunWorker returned %v, want the outside-plan compute error", err)
	}
	if st.Sessions != 1 || st.Redials != 0 {
		t.Fatalf("%d sessions, %d redials: a compute error must end the worker after one session", st.Sessions, st.Redials)
	}
}

// TestFarmWorkerGrantResetsAttempts: MaxAttempts bounds sessions in a
// row that never reach a Grant. A coordinator that grants and then
// drops the link, more times than the cap, is still followed to End.
func TestFarmWorkerGrantResetsAttempts(t *testing.T) {
	const drops = 4
	addr := fakeCoordinator(t, func(session int, dec *feed.Decoder, enc *feed.Encoder) {
		if enc.WriteGrant(&feed.Grant{Session: uint64(session), Epoch: 1}) != nil {
			return
		}
		if _, err := dec.Read(); err != nil { // Steal
			return
		}
		if session > drops {
			enc.WriteEnd(&feed.End{})
			dec.Read() // until the worker hangs up
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := RunWorker(ctx, WorkerConfig{
		Config:      mustFarmConfig(),
		BlockSize:   farmBlockSize,
		Name:        "dropped",
		Addr:        addr,
		Backoff:     time.Millisecond,
		MaxAttempts: 2,
	})
	if err != nil {
		t.Fatalf("worker gave up: %v", err)
	}
	if st.Sessions != drops+1 || st.Rejoins != drops || st.Redials != drops {
		t.Fatalf("stats %+v: want %d sessions, each drop rejoined and redialed", st, drops+1)
	}
}

// TestFarmWorkerRejoinCapsHeldLeases: a worker holding more leases
// than one Join frame may claim builds a rejoin Join with exactly
// feed.MaxHeldLeases of them, and that frame encodes and decodes
// unchanged. The leases left out are reassigned, not lost.
func TestFarmWorkerRejoinCapsHeldLeases(t *testing.T) {
	runner, err := sweep.NewGroupRunner(mustFarmConfig(), farmBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	w := &worker{wc: WorkerConfig{Name: "w"}, runner: runner, sessionID: 7, epoch: 3, held: map[int]uint64{}}
	for gid := 0; gid < feed.MaxHeldLeases+100; gid++ {
		w.held[gid] = uint64(1000 + gid)
	}
	join := w.join()
	if len(join.HeldLeases) != feed.MaxHeldLeases || join.PriorSession != 7 || join.PriorEpoch != 3 {
		t.Fatalf("rejoin claims %d leases of session %d epoch %d, want %d of session 7 epoch 3",
			len(join.HeldLeases), join.PriorSession, join.PriorEpoch, feed.MaxHeldLeases)
	}
	var buf bytes.Buffer
	if err := feed.NewEncoder(&buf, nil).WriteJoin(join); err != nil {
		t.Fatalf("encode: %v", err)
	}
	f, err := feed.NewDecoder(&buf).Read()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got, ok := f.(*feed.Join); !ok || !reflect.DeepEqual(got, join) {
		t.Errorf("decoded %+v, want %+v", f, join)
	}
}
