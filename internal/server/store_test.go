package server

import (
	"fmt"
	"sync"
	"testing"

	"datanet/internal/elasticmap"
	"datanet/internal/records"
)

// testOpts hashes every sub-dataset exactly (α=1), so estimates are exact
// and every block's content is identifiable from its hash map — which the
// stress test uses to reconstruct the final block order.
var testOpts = elasticmap.Options{Alpha: 1.0}

// blockOf builds one record block with the given sub keys, sized
// deterministically by key order.
func blockOf(subs ...string) []records.Record {
	recs := make([]records.Record, 0, 3*len(subs))
	for i, sub := range subs {
		for k := 0; k < 3; k++ {
			recs = append(recs, records.Record{
				Sub:     sub,
				Time:    int64(i*100 + k),
				Payload: fmt.Sprintf("payload-%s-%d-%d", sub, i, k),
			})
		}
	}
	return recs
}

func baseBlocks() [][]records.Record {
	return [][]records.Record{
		blockOf("base-0", "base-1"),
		blockOf("base-1", "base-2"),
		blockOf("base-3"),
		blockOf("base-0", "base-4"),
	}
}

func TestStorePutGetNames(t *testing.T) {
	s := NewStore(8)
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get on empty store succeeded")
	}
	sn := s.Put("logs", elasticmap.Build(baseBlocks(), testOpts))
	if sn.Epoch != 1 {
		t.Fatalf("first epoch = %d, want 1", sn.Epoch)
	}
	s.Put("other", elasticmap.Build(baseBlocks()[:1], testOpts))
	got, ok := s.Get("logs")
	if !ok || got.Arr.Len() != 4 {
		t.Fatalf("Get(logs) = %+v, %v", got, ok)
	}
	if names := s.Names(); len(names) != 2 || names[0] != "logs" || names[1] != "other" {
		t.Fatalf("Names = %v", names)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Replacing bumps the epoch.
	if sn := s.Put("logs", elasticmap.Build(baseBlocks()[:2], testOpts)); sn.Epoch != 2 {
		t.Fatalf("replacement epoch = %d, want 2", sn.Epoch)
	}
}

func TestStoreAppendIsolation(t *testing.T) {
	s := NewStore(8)
	s.Put("logs", elasticmap.Build(baseBlocks(), testOpts))
	before, _ := s.Get("logs")
	wantBase := before.Arr.Estimate("base-0")

	sn, err := s.Write("logs", AppendTo(elasticmap.Build([][]records.Record{blockOf("new-0")}, testOpts)))
	if err != nil {
		t.Fatal(err)
	}
	if sn.Epoch != 2 || sn.Arr.Len() != 5 {
		t.Fatalf("appended snapshot epoch=%d len=%d, want 2/5", sn.Epoch, sn.Arr.Len())
	}
	// The pre-append snapshot is untouched: snapshot isolation.
	if before.Arr.Len() != 4 || before.Arr.Estimate("new-0") != 0 {
		t.Fatalf("old snapshot mutated: len=%d new-0=%d", before.Arr.Len(), before.Arr.Estimate("new-0"))
	}
	if before.Arr.Estimate("base-0") != wantBase {
		t.Fatal("old snapshot estimate changed")
	}
	if _, err := s.Write("nope", AppendTo(sn.Arr)); err != ErrUnknownArray {
		t.Fatalf("append to unknown array: %v", err)
	}
}

// TestStoreAppendMatchesFreshBuild checks the incremental path against the
// batch path: appending blocks one at a time must answer every query
// exactly like a fresh Build of the concatenated blocks.
func TestStoreAppendMatchesFreshBuild(t *testing.T) {
	base := baseBlocks()
	extra := [][]records.Record{
		blockOf("x-0", "x-1"),
		blockOf("x-2"),
		blockOf("base-0", "x-3"),
	}
	s := NewStore(8)
	s.Put("logs", elasticmap.Build(base, testOpts))
	for _, b := range extra {
		if _, err := s.Write("logs", AppendTo(elasticmap.Build([][]records.Record{b}, testOpts))); err != nil {
			t.Fatal(err)
		}
	}
	sn, _ := s.Get("logs")
	fresh := elasticmap.Build(append(append([][]records.Record{}, base...), extra...), testOpts)
	assertArraysEqual(t, sn.Arr, fresh)
}

// assertArraysEqual compares two arrays query-by-query (Encode is not
// byte-deterministic because hash maps serialize in map order).
func assertArraysEqual(t *testing.T, got, want *elasticmap.Array) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len: got %d want %d", got.Len(), want.Len())
	}
	if got.RawBytes() != want.RawBytes() {
		t.Fatalf("RawBytes: got %d want %d", got.RawBytes(), want.RawBytes())
	}
	for _, sub := range want.Subs() {
		if g, w := got.Estimate(sub), want.Estimate(sub); g != w {
			t.Fatalf("Estimate(%q): got %d want %d", sub, g, w)
		}
		for i := 0; i < want.Len(); i++ {
			gs, gc := got.Block(i).Query(sub)
			ws, wc := want.Block(i).Query(sub)
			if gs != ws || gc != wc {
				t.Fatalf("Block(%d).Query(%q): got (%d,%v) want (%d,%v)", i, sub, gs, gc, ws, wc)
			}
		}
	}
}

// TestStoreConcurrentAppendQuery is the snapshot-isolation stress test:
// 8 appender goroutines race 8 query goroutines. Every reader must observe
// exactly one epoch per request — the (epoch → block count) and
// (epoch → estimate) relations must be functions — and after the dust
// settles the final array must match a fresh Build of the same blocks in
// the final order. Run under -race.
func TestStoreConcurrentAppendQuery(t *testing.T) {
	const (
		appenders        = 8
		appendsPerWorker = 4
		readers          = 8
	)
	base := baseBlocks()
	s := NewStore(64)
	s.Put("logs", elasticmap.Build(base, testOpts))

	// appended[a][i] is appender a's i-th block; its subs encode (a, i) so
	// the final interleaving can be reconstructed from block metas alone.
	appended := make([][][]records.Record, appenders)
	subFor := func(a, i int) string { return fmt.Sprintf("a%02di%02d", a, i) }
	for a := range appended {
		appended[a] = make([][]records.Record, appendsPerWorker)
		for i := range appended[a] {
			appended[a][i] = blockOf(subFor(a, i), subFor(a, i)+"-extra")
		}
	}
	expectEstimate := make(map[string]int64)
	for a := range appended {
		for i := range appended[a] {
			m := elasticmap.BuildBlockMeta(appended[a][i], testOpts)
			for _, sub := range []string{subFor(a, i), subFor(a, i) + "-extra"} {
				expectEstimate[sub], _ = m.Query(sub)
			}
		}
	}

	var (
		wg         sync.WaitGroup
		done       = make(chan struct{})
		epochLen   sync.Map // epoch → block count: must be a function
		epochCanon sync.Map // epoch\x00sub → estimate: must be a function
		failures   = make(chan string, appenders*readers+16)
	)
	report := func(format string, args ...any) {
		select {
		case failures <- fmt.Sprintf(format, args...):
		default:
		}
	}

	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < appendsPerWorker; i++ {
				if _, err := s.Write("logs", AppendTo(elasticmap.Build([][]records.Record{appended[a][i]}, testOpts))); err != nil {
					report("append %d/%d: %v", a, i, err)
					return
				}
			}
		}(a)
	}

	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			for iter := 0; ; iter++ {
				select {
				case <-done:
					return
				default:
				}
				sn, ok := s.Get("logs")
				if !ok {
					report("reader %d: array vanished", r)
					return
				}
				// One snapshot answers the whole "request": every
				// observation below must be internally consistent.
				n := sn.Arr.Len()
				if prev, loaded := epochLen.LoadOrStore(sn.Epoch, n); loaded && prev.(int) != n {
					report("torn read: epoch %d seen with %d and %d blocks", sn.Epoch, prev.(int), n)
					return
				}
				if want := 4 + int(sn.Epoch) - 1; n != want {
					report("epoch %d has %d blocks, want %d", sn.Epoch, n, want)
					return
				}
				probe := subFor(r%appenders, iter%appendsPerWorker)
				est := sn.Arr.Estimate(probe)
				if est != 0 && est != expectEstimate[probe] {
					report("estimate(%s) = %d, want 0 or %d", probe, est, expectEstimate[probe])
					return
				}
				key := fmt.Sprintf("%d\x00%s", sn.Epoch, probe)
				if prev, loaded := epochCanon.LoadOrStore(key, est); loaded && prev.(int64) != est {
					report("torn read: epoch %d estimate(%s) seen as %d and %d", sn.Epoch, probe, prev.(int64), est)
					return
				}
				// Distribution must agree with Estimate on the same snapshot.
				var sum int64
				for _, be := range sn.Arr.Distribution(probe) {
					sum += be.Size
				}
				if sum != est {
					report("snapshot-internal mismatch for %s: distribution %d vs estimate %d", probe, sum, est)
					return
				}
			}
		}(r)
	}

	wg.Wait()
	close(done)
	readerWG.Wait()
	close(failures)
	for f := range failures {
		t.Error(f)
	}
	if t.Failed() {
		t.FailNow()
	}

	// The final epoch saw every append exactly once.
	final, _ := s.Get("logs")
	wantBlocks := len(base) + appenders*appendsPerWorker
	if final.Arr.Len() != wantBlocks || final.Epoch != uint64(1+appenders*appendsPerWorker) {
		t.Fatalf("final epoch=%d len=%d, want %d/%d", final.Epoch, final.Arr.Len(), 1+appenders*appendsPerWorker, wantBlocks)
	}

	// Reconstruct the final block order from the metas (α=1 hashes every
	// sub, so each appended block is identified by its tag) and check the
	// incremental array against a fresh batch Build of the same sequence.
	inOrder := append([][]records.Record{}, base...)
	for bi := len(base); bi < final.Arr.Len(); bi++ {
		a, i := -1, -1
		for ca := range appended {
			for ci := range appended[ca] {
				if _, c := final.Arr.Block(bi).Query(subFor(ca, ci)); c == elasticmap.Hashed {
					a, i = ca, ci
				}
			}
		}
		if a < 0 {
			t.Fatalf("block %d is not an appended block", bi)
		}
		inOrder = append(inOrder, appended[a][i])
	}
	assertArraysEqual(t, final.Arr, elasticmap.Build(inOrder, testOpts))
}
