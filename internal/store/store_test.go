package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"asymfence/internal/faults"
	"asymfence/internal/metrics"
)

// open opens a test store with a small budget unless overridden.
func open(t *testing.T, dir string, o Options) *Store {
	t.Helper()
	if o.Kind == "" {
		o.Kind = "test/v1"
	}
	s, err := Open(dir, o)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func TestPutGetRoundtrip(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	defer s.Close()

	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get on empty store reported a hit")
	}
	payload := json.RawMessage(`{"cycles":12345}`)
	s.Put("cilk:fib@WS+/p8", payload)

	// Read-your-writes: visible before the writer persists it.
	got, ok := s.Get("cilk:fib@WS+/p8")
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get after Put = %q, %v; want payload hit", got, ok)
	}
	s.Flush()
	got, ok = s.Get("cilk:fib@WS+/p8")
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get after Flush = %q, %v; want payload hit", got, ok)
	}
	st := s.Stats()
	if st.Records != 1 || st.Writes != 1 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 record, 1 write, 2 hits, 1 miss", st)
	}
}

func TestReopenPersists(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	for i := 0; i < 5; i++ {
		s.Put(fmt.Sprintf("key-%d", i), json.RawMessage(fmt.Sprintf(`{"v":%d}`, i)))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := open(t, dir, Options{})
	defer r.Close()
	for i := 0; i < 5; i++ {
		got, ok := r.Get(fmt.Sprintf("key-%d", i))
		if !ok || string(got) != fmt.Sprintf(`{"v":%d}`, i) {
			t.Fatalf("reopened Get(key-%d) = %q, %v", i, got, ok)
		}
	}
	if st := r.Stats(); st.Records != 5 {
		t.Fatalf("reopened stats = %+v, want 5 records", st)
	}
}

// object returns the on-disk path of key's record.
func object(s *Store, key string) string { return s.objectPath(keyHash(key)) }

func TestCorruptAndTruncatedRecordsRecover(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	s.Put("good", json.RawMessage(`{"v":1}`))
	s.Put("truncated", json.RawMessage(`{"v":2}`))
	s.Put("garbage", json.RawMessage(`{"v":3}`))
	s.Flush()

	// Truncate one record mid-envelope and overwrite another with junk.
	tr := object(s, "truncated")
	b, err := os.ReadFile(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tr, b[:len(b)/2], 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(object(s, "garbage"), []byte("not json at all"), 0o666); err != nil {
		t.Fatal(err)
	}

	// Same handle: the damaged records degrade to misses and are removed.
	if _, ok := s.Get("truncated"); ok {
		t.Fatal("truncated record served as a hit")
	}
	if _, ok := s.Get("garbage"); ok {
		t.Fatal("corrupt record served as a hit")
	}
	if got, ok := s.Get("good"); !ok || string(got) != `{"v":1}` {
		t.Fatalf("intact record lost: %q, %v", got, ok)
	}
	if st := s.Stats(); st.Corrupt != 2 || st.Records != 1 {
		t.Fatalf("stats after damage = %+v, want 2 corrupt, 1 record", st)
	}
	if _, err := os.Stat(tr); !os.IsNotExist(err) {
		t.Fatalf("truncated record file not removed: %v", err)
	}
	s.Close()

	// Fresh open over a damaged directory also recovers.
	s2 := open(t, dir, Options{})
	defer s2.Close()
	s2.Put("truncated", json.RawMessage(`{"v":22}`))
	s2.Flush()
	if got, ok := s2.Get("truncated"); !ok || string(got) != `{"v":22}` {
		t.Fatalf("regenerated record = %q, %v", got, ok)
	}
}

func TestOpenCleansDamageAndTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	s.Put("keep", json.RawMessage(`{"v":1}`))
	s.Put("broken", json.RawMessage(`{"v":2}`))
	s.Close()

	if err := os.Truncate(object(s, "broken"), 7); err != nil {
		t.Fatal(err)
	}
	// A crashed writer leaves a temp file behind; Open must sweep it.
	tmp := filepath.Join(dir, "objects", "ab")
	os.MkdirAll(tmp, 0o777)
	if err := os.WriteFile(filepath.Join(tmp, "tmp-12345"), []byte("partial"), 0o666); err != nil {
		t.Fatal(err)
	}
	// A corrupt advisory index must not poison the open either.
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte("{{{"), 0o666); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir, Options{})
	defer r.Close()
	if st := r.Stats(); st.Records != 1 || st.Corrupt != 1 {
		t.Fatalf("stats after damaged open = %+v, want 1 record, 1 corrupt", st)
	}
	if _, err := os.Stat(filepath.Join(tmp, "tmp-12345")); !os.IsNotExist(err) {
		t.Fatal("leftover temp file survived Open")
	}
	if got, ok := r.Get("keep"); !ok || string(got) != `{"v":1}` {
		t.Fatalf("intact record lost across damaged open: %q, %v", got, ok)
	}
}

func TestKindMismatchIsMiss(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{Kind: "old/v1"})
	s.Put("k", json.RawMessage(`{"v":1}`))
	s.Close()

	r := open(t, dir, Options{Kind: "new/v2"})
	defer r.Close()
	if _, ok := r.Get("k"); ok {
		t.Fatal("record of a different kind served as a hit")
	}
	if st := r.Stats(); st.Records != 0 {
		t.Fatalf("stats = %+v, want old-kind records dropped on open", st)
	}
}

func TestSizeBoundEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	// Budget fits roughly 4 of the ~300-byte envelopes.
	s := open(t, dir, Options{MaxBytes: 1200})
	pad := strings.Repeat("x", 100)
	for i := 0; i < 8; i++ {
		s.Put(fmt.Sprintf("key-%d", i), json.RawMessage(fmt.Sprintf(`{"v":%d,"pad":%q}`, i, pad)))
		s.Flush()
		// Touch key-0 after every write so it stays most-recently-used.
		if _, ok := s.Get("key-0"); !ok && i == 0 {
			t.Fatal("key-0 missing immediately after Put")
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget: %+v", int64(1200), st)
	}
	if st.Bytes > 1200 {
		t.Fatalf("store over budget after eviction: %+v", st)
	}
	if _, ok := s.Get("key-0"); !ok {
		t.Fatal("most-recently-used record was evicted")
	}
	if _, ok := s.Get("key-1"); ok {
		t.Fatal("least-recently-used record survived eviction")
	}
	s.Close()

	// Eviction removed the files, not just the index entries.
	if _, err := os.Stat(object(s, "key-1")); !os.IsNotExist(err) {
		t.Fatal("evicted record file still on disk")
	}
}

func TestConcurrentOpenAndUse(t *testing.T) {
	dir := t.TempDir()
	a := open(t, dir, Options{})
	b := open(t, dir, Options{})
	defer a.Close()
	defer b.Close()

	var wg sync.WaitGroup
	for g, s := range []*Store{a, b} {
		wg.Add(1)
		go func(g int, s *Store) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("key-%d", i)
				s.Put(key, json.RawMessage(fmt.Sprintf(`{"v":%d}`, i)))
				if v, ok := s.Get(key); !ok || string(v) != fmt.Sprintf(`{"v":%d}`, i) {
					t.Errorf("handle %d: Get(%s) = %q, %v", g, key, v, ok)
					return
				}
			}
		}(g, s)
	}
	wg.Wait()
	a.Flush()
	b.Flush()

	// Both handles wrote identical content; a third open sees one copy
	// of each record.
	c := open(t, dir, Options{})
	defer c.Close()
	if st := c.Stats(); st.Records != 50 {
		t.Fatalf("after concurrent writers, records = %d, want 50", st.Records)
	}
}

func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	s.Put("k", json.RawMessage(`1`))
	if _, ok := s.Get("k"); ok {
		t.Fatal("nil store reported a hit")
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil store stats = %+v", st)
	}
	if s.Dir() != "" {
		t.Fatal("nil store has a dir")
	}
	s.Flush()
	if err := s.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func TestMetricsAccounting(t *testing.T) {
	reg := metrics.NewRegistry()
	s := open(t, t.TempDir(), Options{Metrics: reg.Scope("store")})
	defer s.Close()
	s.Put("k", json.RawMessage(`{"v":1}`))
	s.Flush()
	s.Get("k")
	s.Get("absent")

	js := string(reg.JSON())
	for _, want := range []string{`"store.hits": 1`, `"store.misses": 1`, `"store.writes": 1`, `"store.records": 1`} {
		if !strings.Contains(js, want) {
			t.Fatalf("metrics snapshot missing %q:\n%s", want, js)
		}
	}
}

func TestLRUOrderSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxBytes: 1 << 20})
	for i := 0; i < 4; i++ {
		s.Put(fmt.Sprintf("key-%d", i), json.RawMessage(fmt.Sprintf(`{"v":%d}`, i)))
	}
	// Touch key-0 so key-1 is the coldest at Close.
	s.Get("key-0")
	s.Close()

	// Reopen with a budget that forces one eviction on the next write:
	// the saved index order must make key-1 the victim.
	r := open(t, dir, Options{MaxBytes: 4 * recordSize(t, dir)})
	defer r.Close()
	r.Put("key-4", json.RawMessage(`{"v":4}`))
	r.Flush()
	if _, ok := r.Get("key-1"); ok {
		t.Fatal("coldest record survived the post-reopen eviction")
	}
	if _, ok := r.Get("key-0"); !ok {
		t.Fatal("recently-used record was evicted after reopen")
	}
}

// recordSize returns the size of one record file in dir (they are all
// within a few bytes of each other in these tests).
func recordSize(t *testing.T, dir string) int64 {
	t.Helper()
	var size int64
	filepath.Walk(filepath.Join(dir, "objects"), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && size == 0 {
			size = info.Size()
		}
		return nil
	})
	if size == 0 {
		t.Fatal("no record files found")
	}
	return size
}

// TestWriteFaultsDegradeToMisses drives the store through its
// write-fault seam: injected write errors, ENOSPC and torn
// files must only ever cost re-simulation (misses) — a Get either
// returns the exact bytes that were Put or misses, never wrong data,
// on both the live handle and a fresh open.
func TestWriteFaultsDegradeToMisses(t *testing.T) {
	dir := t.TempDir()
	wf := faults.NewWriteFaults(13, faults.DefaultFS())
	s := open(t, dir, Options{WriteFile: wf.Wrap(WriteFileAtomic)})

	want := map[string]string{}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("key-%d", i)
		payload := fmt.Sprintf(`{"v":%d}`, i)
		want[key] = payload
		s.Put(key, json.RawMessage(payload))
	}
	s.Flush()

	hits := 0
	for key, payload := range want {
		if got, ok := s.Get(key); ok {
			hits++
			if string(got) != payload {
				t.Fatalf("live Get(%s) = %q, want %q or a miss", key, got, payload)
			}
		}
	}
	if hits == 0 || hits == len(want) {
		t.Fatalf("live hits = %d of %d; fault mix should lose some writes but not all", hits, len(want))
	}
	s.Close()

	r := open(t, dir, Options{})
	defer r.Close()
	rehits := 0
	for key, payload := range want {
		if got, ok := r.Get(key); ok {
			rehits++
			if string(got) != payload {
				t.Fatalf("reopened Get(%s) = %q, want %q or a miss", key, got, payload)
			}
		}
	}
	if rehits == 0 {
		t.Fatal("no records survived the fault schedule; expected some clean writes")
	}
	t.Logf("64 faulted puts: %d live hits, %d after reopen, %d corrupt dropped",
		hits, rehits, r.Stats().Corrupt)
}

// TestConcurrentEvictionVsGet races the background writer's LRU
// eviction against concurrent readers on a tiny budget: every Get must
// either hit with the exact put bytes or miss cleanly, while the
// writer is continuously evicting underneath.
func TestConcurrentEvictionVsGet(t *testing.T) {
	dir := t.TempDir()
	// Budget of a handful of records, so most writes trigger eviction.
	s := open(t, dir, Options{MaxBytes: 1500})
	defer s.Close()

	const keys = 16
	payload := func(i int) string { return fmt.Sprintf(`{"v":%d,"pad":%q}`, i, strings.Repeat("x", 80)) }

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for round := 0; round < 40; round++ {
			for i := 0; i < keys; i++ {
				s.Put(fmt.Sprintf("key-%d", i), json.RawMessage(payload(i)))
			}
			s.Flush()
		}
	}()
	go func() {
		defer wg.Done()
		for round := 0; round < 400; round++ {
			i := round % keys
			if got, ok := s.Get(fmt.Sprintf("key-%d", i)); ok && string(got) != payload(i) {
				t.Errorf("Get(key-%d) mid-eviction = %q, want %q or a miss", i, got, payload(i))
				return
			}
		}
	}()
	wg.Wait()

	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a 1500-byte budget while racing reads: %+v", st)
	}
	if st.Bytes > 1500 {
		t.Fatalf("store over budget: %+v", st)
	}
}
