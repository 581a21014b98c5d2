package checkpoint

import (
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"crane/internal/cfs"
)

// fakeProc is a Process with a JSON-serialized counter state.
type fakeProc struct {
	conns   atomic.Int32
	Counter int
	History []string
	failing bool
}

func (p *fakeProc) Quiescent() bool { return p.conns.Load() == 0 }

func (p *fakeProc) Snapshot() ([]byte, error) {
	if p.failing {
		return nil, errors.New("boom")
	}
	return json.Marshal(struct {
		Counter int
		History []string
	}{p.Counter, p.History})
}

func (p *fakeProc) Restore(b []byte) error {
	if p.failing {
		return errors.New("boom")
	}
	var st struct {
		Counter int
		History []string
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return err
	}
	p.Counter = st.Counter
	p.History = st.History
	return nil
}

func TestCaptureRestoreRoundTrip(t *testing.T) {
	proc := &fakeProc{Counter: 42, History: []string{"a", "b"}}
	fs := cfs.New()
	fs.Write("install/conf", []byte("v=1\n"))
	base := fs.Snapshot()
	fs.Write("work/data", []byte("payload"))
	fs.Write("install/conf", []byte("v=2\n"))

	cp := New(Options{})
	ck, tm, err := cp.Capture(proc, fs, base, func() uint64 { return 17 })
	if err != nil {
		t.Fatal(err)
	}
	if ck.Index != 17 {
		t.Fatalf("Index = %d", ck.Index)
	}
	if tm.Retries != 0 {
		t.Fatalf("Retries = %d for quiescent proc", tm.Retries)
	}
	if tm.FSPatchBytes == 0 {
		t.Fatal("fs patch empty despite changes")
	}

	// Restore into a fresh replica.
	proc2 := &fakeProc{}
	if _, err := cp.RestoreProcess(ck, proc2); err != nil {
		t.Fatal(err)
	}
	if proc2.Counter != 42 || len(proc2.History) != 2 {
		t.Fatalf("restored proc = %+v", proc2)
	}
	fs2, _, err := cp.RestoreFS(ck, base)
	if err != nil {
		t.Fatal(err)
	}
	if !cfs.Equal(fs, fs2) {
		t.Fatal("restored fs differs")
	}
}

func TestQuiescenceBackoff(t *testing.T) {
	proc := &fakeProc{}
	proc.conns.Store(3) // busy
	fs := cfs.New()
	base := fs.Snapshot()
	cp := New(Options{Backoff: time.Millisecond, MaxRetries: 50})
	go func() {
		time.Sleep(5 * time.Millisecond)
		proc.conns.Store(0) // connections drain
	}()
	ck, tm, err := cp.Capture(proc, fs, base, func() uint64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if tm.Retries == 0 {
		t.Fatal("expected backoff retries")
	}
	if ck == nil {
		t.Fatal("nil checkpoint")
	}
}

func TestQuiescenceGivesUp(t *testing.T) {
	proc := &fakeProc{}
	proc.conns.Store(1) //forever busy
	fs := cfs.New()
	cp := New(Options{Backoff: time.Microsecond, MaxRetries: 3})
	_, _, err := cp.Capture(proc, fs, fs.Snapshot(), func() uint64 { return 0 })
	if !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("err = %v, want ErrNotQuiescent", err)
	}
}

func TestSnapshotErrorPropagates(t *testing.T) {
	proc := &fakeProc{failing: true}
	fs := cfs.New()
	cp := New(Options{})
	if _, _, err := cp.Capture(proc, fs, fs.Snapshot(), func() uint64 { return 0 }); err == nil {
		t.Fatal("snapshot error swallowed")
	}
	good := &fakeProc{}
	ck, _, err := cp.Capture(good, fs, fs.Snapshot(), func() uint64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.RestoreProcess(ck, proc); err == nil {
		t.Fatal("restore error swallowed")
	}
}

func TestEncodeDecodeShipping(t *testing.T) {
	proc := &fakeProc{Counter: 7}
	fs := cfs.New()
	base := fs.Snapshot()
	fs.Write("f", []byte("x"))
	cp := New(Options{})
	ck, _, err := cp.Capture(proc, fs, base, func() uint64 { return 9 })
	if err != nil {
		t.Fatal(err)
	}
	wire, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != 9 || len(got.FSPatch.Ops) != 1 {
		t.Fatalf("shipped checkpoint = %+v", got)
	}
	if _, err := Decode([]byte("junk")); err == nil {
		t.Fatal("Decode of junk succeeded")
	}
}

func TestRestoreIsRepeatable(t *testing.T) {
	// A checkpoint must be restorable multiple times (e.g. to seed several
	// new replicas) without mutation.
	proc := &fakeProc{Counter: 1}
	fs := cfs.New()
	base := fs.Snapshot()
	fs.Write("a", []byte("one"))
	cp := New(Options{})
	ck, _, err := cp.Capture(proc, fs, base, func() uint64 { return 3 })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		fsN, _, err := cp.RestoreFS(ck, base)
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := fsN.Read("a"); string(d) != "one" {
			t.Fatalf("restore %d corrupted: %q", i, d)
		}
	}
}
