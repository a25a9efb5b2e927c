package trace

import (
	"bytes"
	"testing"
)

// FuzzDecode: Decode must survive arbitrary bytes — no panic, no
// runaway allocation — and any op stream it accepts must survive an
// Encode/Decode round trip unchanged.
func FuzzDecode(f *testing.F) {
	valid := func(ops []Op) []byte {
		var buf bytes.Buffer
		if err := (&Trace{Ops: ops}).Encode(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(valid(nil))
	f.Add(valid([]Op{{Kind: OpMalloc, Arg: 64}, {Kind: OpFree, Arg: 0}}))
	f.Add(valid([]Op{{Kind: OpMalloc, Arg: 1 << 40}}))
	f.Add([]byte{})                                  // short header
	f.Add([]byte{'N', 'G', 'T', 2})                  // wrong version
	f.Add([]byte{'N', 'G', 'T', 1})                  // missing count
	f.Add([]byte{'N', 'G', 'T', 1, 0xff, 0xff})      // truncated varint count
	f.Add([]byte{'N', 'G', 'T', 1, 3, 1, 64})        // count 3, one op, truncated
	f.Add([]byte{'N', 'G', 'T', 1, 1, 9, 0})         // bad op kind
	f.Add(valid([]Op{{Kind: OpMalloc, Arg: 8}})[:6]) // truncated mid-op
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := tr.Encode(&out); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		again, err := Decode(&out)
		if err != nil {
			t.Fatalf("decode of re-encoded trace failed: %v", err)
		}
		if len(again.Ops) != len(tr.Ops) {
			t.Fatalf("round trip changed op count: %d vs %d", len(again.Ops), len(tr.Ops))
		}
		for i := range tr.Ops {
			if tr.Ops[i] != again.Ops[i] {
				t.Fatalf("round trip changed op %d: %+v vs %+v", i, tr.Ops[i], again.Ops[i])
			}
		}
	})
}
