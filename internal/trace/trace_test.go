package trace

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"testing/quick"

	"nextgenmalloc/internal/allocators/bump"
	"nextgenmalloc/internal/allocators/mimalloc"
	"nextgenmalloc/internal/sim"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := &Trace{Ops: []Op{
		{OpMalloc, 64}, {OpMalloc, 128}, {OpFree, 0}, {OpMalloc, 1 << 20}, {OpFree, 2}, {OpFree, 1},
	}}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != len(tr.Ops) {
		t.Fatalf("op count %d != %d", len(got.Ops), len(tr.Ops))
	}
	for i := range tr.Ops {
		if got.Ops[i] != tr.Ops[i] {
			t.Fatalf("op %d: %v != %v", i, got.Ops[i], tr.Ops[i])
		}
	}
}

func TestQuickEncodeDecode(t *testing.T) {
	f := func(kinds []bool, args []uint64) bool {
		tr := &Trace{}
		for i, k := range kinds {
			op := Op{Kind: OpMalloc}
			if !k {
				op.Kind = OpFree
			}
			if i < len(args) {
				op.Arg = args[i]
			}
			tr.Ops = append(tr.Ops, op)
		}
		var buf bytes.Buffer
		if tr.Encode(&buf) != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil || len(got.Ops) != len(tr.Ops) {
			return false
		}
		for i := range tr.Ops {
			if got.Ops[i] != tr.Ops[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Bad op kind.
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(1) // count 1
	buf.WriteByte(9) // bad kind
	buf.WriteByte(0)
	if _, err := Decode(&buf); err == nil {
		t.Error("bad op kind accepted")
	}
}

// TestRecordReplay: recording a request stream through one allocator and
// replaying it against another preserves the call sequence and frees
// everything live at the end.
func TestRecordReplay(t *testing.T) {
	var tr *Trace
	m := sim.New(sim.ScaledConfig())
	m.Spawn("rec", 0, func(th *sim.Thread) {
		rec := NewRecorder(bump.New(th))
		rng := uint64(5)
		live := make([]uint64, 50)
		for i := 0; i < 800; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			s := rng >> 33 % 50
			if live[s] != 0 {
				rec.Free(th, live[s])
			}
			live[s] = rec.Malloc(th, 16+rng>>40%200)
		}
		tr = rec.Trace()
	})
	m.Run()

	if tr.Mallocs() != 800 {
		t.Fatalf("recorded %d mallocs, want 800", tr.Mallocs())
	}

	m2 := sim.New(sim.ScaledConfig())
	m2.Spawn("rep", 0, func(th *sim.Thread) {
		a := mimalloc.New(th)
		Replay(th, a, tr)
		st := a.Stats()
		if st.MallocCalls != 800 {
			t.Errorf("replay made %d mallocs, want 800", st.MallocCalls)
		}
		if st.FreeCalls != st.MallocCalls {
			t.Errorf("replay leaked: %d mallocs vs %d frees", st.MallocCalls, st.FreeCalls)
		}
	})
	m2.Run()
}

func TestRecorderPanicsOnForeignFree(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	m.Spawn("t", 0, func(th *sim.Thread) {
		rec := NewRecorder(bump.New(th))
		rec.Malloc(th, 32)
		defer func() {
			if recover() == nil {
				t.Error("expected panic on unrecorded free")
			}
		}()
		rec.Free(th, 0x1234)
	})
	m.Run()
}

// TestDecodeTruncatedInputs: every truncation of a valid encoding must
// produce an error — never a panic and never a silently short trace.
func TestDecodeTruncatedInputs(t *testing.T) {
	tr := &Trace{Ops: []Op{
		{OpMalloc, 64}, {OpMalloc, 300}, {OpFree, 0}, {OpMalloc, 1 << 40}, {OpFree, 1},
	}}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		got, err := Decode(bytes.NewReader(full[:n]))
		if err == nil {
			t.Errorf("truncation to %d/%d bytes decoded silently (%d ops)", n, len(full), len(got.Ops))
		}
	}
}

// TestDecodeHugeCountDoesNotPreallocate: a corrupt header claiming
// billions of ops must fail cleanly once the data runs out, without
// first allocating a slice sized to the lie.
func TestDecodeHugeCountDoesNotPreallocate(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	var tmp [10]byte
	n := binary.PutUvarint(tmp[:], 1<<40) // a trillion ops, zero present
	buf.Write(tmp[:n])
	before := heapAllocBytes()
	_, err := Decode(&buf)
	// Signed: a GC between the two reads shrinks the heap, and an
	// unsigned difference would wrap to ~2^64.
	grew := int64(heapAllocBytes()) - int64(before)
	if err == nil {
		t.Fatal("huge-count empty trace accepted")
	}
	// The 1<<16 cap bounds the hint to ~1 MiB of Ops; anything beyond a
	// few MiB means the count drove the allocation.
	if grew > 8<<20 {
		t.Errorf("decode of empty payload grew the heap by %d bytes", grew)
	}
}

func heapAllocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
