package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if strings.Contains(name, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		back, err := KindFromString(name)
		if err != nil || back != k {
			t.Fatalf("KindFromString(%q) = %v, %v", name, back, err)
		}
	}
	if _, err := KindFromString("bogus"); err == nil {
		t.Fatal("bogus kind accepted")
	}
	if !strings.Contains(Kind(200).String(), "kind(200)") {
		t.Fatalf("out-of-range kind: %q", Kind(200).String())
	}
}

func TestSigString(t *testing.T) {
	e := Event{SigIDs: [MaxSigIDs]uint32{0x1a, 0x2b}, SigN: 2}
	if got := e.SigString(); got != "<t1a,t2b>" {
		t.Fatalf("SigString = %q", got)
	}
	if got := (Event{}).SigString(); got != "" {
		t.Fatalf("empty SigString = %q", got)
	}
}

func TestPolicyString(t *testing.T) {
	if got := (Event{Policy: 0xF}).PolicyString(); got != "1111" {
		t.Fatalf("PolicyString(0xF) = %q", got)
	}
	if got := (Event{Policy: 0b1100}).PolicyString(); got != "1100" {
		t.Fatalf("PolicyString(0b1100) = %q", got)
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("empty Multi should be nil")
	}
	r := NewRing(4)
	if got := Multi(nil, r); got != Tracer(r) {
		t.Fatal("single live tracer should be returned unwrapped")
	}
	r2 := NewRing(4)
	m := Multi(r, r2)
	m.Emit(Event{Kind: KindGate})
	if r.Total() != 1 || r2.Total() != 1 {
		t.Fatalf("fan-out totals %d, %d", r.Total(), r2.Total())
	}
}

func TestStamped(t *testing.T) {
	r := NewRing(8)
	cycle, window := 123.5, uint64(7)
	st := Stamped(r, func() (float64, uint64) { return cycle, window })
	st.Emit(Event{Kind: KindPVTHit})
	st.Emit(Event{Kind: KindGate, Cycle: 50, Window: 3}) // keeps its own stamps
	ev := r.Events()
	if ev[0].Cycle != 123.5 || ev[0].Window != 7 {
		t.Fatalf("stamped event = %+v", ev[0])
	}
	if ev[1].Cycle != 50 || ev[1].Window != 3 {
		t.Fatalf("pre-stamped event overwritten: %+v", ev[1])
	}
	if Stamped(nil, nil) != nil {
		t.Fatal("Stamped(nil) should stay nil")
	}
}

func TestNop(t *testing.T) {
	var n Nop
	n.Emit(Event{Kind: KindWindowClose}) // must not panic
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	want := []Event{
		{Kind: KindWindowClose, Cycle: 10.5, Window: 1, SigIDs: [MaxSigIDs]uint32{9, 11}, SigN: 2, Count: 32000, Value: 3},
		{Kind: KindPVTHit, Cycle: 11, Window: 2, SigIDs: [MaxSigIDs]uint32{9, 11}, SigN: 2, Policy: 0xF, Count: 5},
		{Kind: KindGate, Cycle: 12, Unit: "VPU", Prev: 1, Next: 0, Stall: 530, Count: 4},
		{Kind: KindCDERegister, Cycle: 13, Detail: "computed", Policy: 0b1010},
		{Kind: KindTranslate, Count: 0xdeadbeef, Value: 64},
	}
	for _, e := range want {
		j.Emit(e)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if j.Events() != uint64(len(want)) {
		t.Fatalf("Events() = %d", j.Events())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("%d lines for %d events", len(lines), len(want))
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d events", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestMarshalEvent checks the one-object encoder matches the JSONL wire
// format exactly: its output parses back with ReadJSONL to the original
// event.
func TestMarshalEvent(t *testing.T) {
	want := Event{Kind: KindPVTHit, Cycle: 11, Window: 2, SigIDs: [MaxSigIDs]uint32{9, 11}, SigN: 2, Policy: 0xF, Count: 5}
	b, err := MarshalEvent(want)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.ContainsRune(b, '\n') {
		t.Fatalf("MarshalEvent output contains a newline: %q", b)
	}
	got, err := ReadJSONL(bytes.NewReader(append(b, '\n')))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"kind":"nope"}` + "\n")); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"kind":"pvt-hit","sig":[1,2,3,4,5,6,7,8,9]}` + "\n")); err == nil {
		t.Fatal("overwide signature accepted")
	}
	ev, err := ReadJSONL(strings.NewReader("\n\n"))
	if err != nil || len(ev) != 0 {
		t.Fatalf("blank-line trace: %v, %d events", err, len(ev))
	}
}
