package codegen

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/corpus"
)

// wireFloats covers the float64 values a text codec would mangle: NaN
// payloads (quiet and signaling, both signs), signed zeros and
// infinities, subnormals and the extremes.
var wireFloats = []float64{
	math.Float64frombits(0x7ff8000000000000),
	math.Float64frombits(0x7ff8000000000001),
	math.Float64frombits(0x7ff0000000000001),
	math.Float64frombits(0xfff4000000abcdef),
	0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff),
	math.MaxFloat64, -math.MaxFloat64, 1.0 / 3,
}

var wireInts = []int64{math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64 + 1, math.MaxInt64 - 1, 42}

// wireArrays is a set of arrays covering every edge the codec handles:
// bit-exact floats, extreme ints, zero-length arrays and 3-D dims.
func wireArrays() []rtArray {
	f3 := make([]float64, 2*3*4)
	for i := range f3 {
		f3[i] = wireFloats[i%len(wireFloats)]
	}
	i3 := make([]int64, 2*2*2)
	for i := range i3 {
		i3[i] = wireInts[i%len(wireInts)]
	}
	return []rtArray{
		{Name: "f", Float: true, Dims: []int64{int64(len(wireFloats))}, Flts: append([]float64(nil), wireFloats...)},
		{Name: "i", Dims: []int64{int64(len(wireInts))}, Ints: append([]int64(nil), wireInts...)},
		{Name: "f3", Float: true, Dims: []int64{2, 3, 4}, Flts: f3},
		{Name: "i3", Dims: []int64{2, 2, 2}, Ints: i3},
		{Name: "empty_i", Dims: []int64{0}, Ints: []int64{}},
		{Name: "empty_f", Float: true, Dims: []int64{3, 0, 5}, Flts: []float64{}},
		{Name: "", Dims: []int64{1}, Ints: []int64{7}},
	}
}

// sameArrays compares two array lists bit for bit.
func sameArrays(t *testing.T, want, got []rtArray) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%d arrays, want %d", len(got), len(want))
	}
	for k := range want {
		w, g := &want[k], &got[k]
		if w.Name != g.Name || w.Float != g.Float || len(w.Dims) != len(g.Dims) || w.elems() != g.elems() {
			t.Fatalf("array %d: header %q/%v/%v/%d, want %q/%v/%v/%d", k,
				g.Name, g.Float, g.Dims, g.elems(), w.Name, w.Float, w.Dims, w.elems())
		}
		for i := range w.Dims {
			if w.Dims[i] != g.Dims[i] {
				t.Fatalf("array %s: dims %v, want %v", w.Name, g.Dims, w.Dims)
			}
		}
		for i := range w.Flts {
			if math.Float64bits(w.Flts[i]) != math.Float64bits(g.Flts[i]) {
				t.Errorf("array %s[%d]: bits %#x, want %#x", w.Name, i, math.Float64bits(g.Flts[i]), math.Float64bits(w.Flts[i]))
			}
		}
		for i := range w.Ints {
			if w.Ints[i] != g.Ints[i] {
				t.Errorf("array %s[%d]: %d, want %d", w.Name, i, g.Ints[i], w.Ints[i])
			}
		}
	}
}

// TestWireRoundTrip encodes a work order and a result holding every
// edge value and requires the decoder to return them bit for bit.
func TestWireRoundTrip(t *testing.T) {
	nan := math.Float64bits(math.Float64frombits(0x7ff8000000000dad))
	work := &rtWork{
		Workers:    8,
		FailGuards: []string{"*", "L2", ""},
		Arrays:     wireArrays(),
		Calls: []rtCall{
			{Fn: "k", Args: []rtArg{
				{Kind: rtKindInt, Bits: uint64(wireInts[0])},
				{Kind: rtKindInt, Bits: uint64(wireInts[1])},
				{Kind: rtKindFloat, Bits: nan},
				{Kind: rtKindFloat, Bits: math.Float64bits(math.Copysign(0, -1))},
				{Kind: rtKindArray, Name: "f3"},
				{Kind: rtKindArray, Name: ""},
			}},
			{Fn: "noargs", Args: []rtArg{}},
		},
	}
	msg := rtEncodeWork(work)
	got, err := rtDecodeWork(msg)
	if err != nil {
		t.Fatalf("decode work: %v", err)
	}
	if got.Workers != work.Workers || strings.Join(got.FailGuards, ",") != strings.Join(work.FailGuards, ",") {
		t.Fatalf("workers/guards %d %q, want %d %q", got.Workers, got.FailGuards, work.Workers, work.FailGuards)
	}
	sameArrays(t, work.Arrays, got.Arrays)
	if len(got.Calls) != len(work.Calls) {
		t.Fatalf("%d calls, want %d", len(got.Calls), len(work.Calls))
	}
	for i, c := range work.Calls {
		g := got.Calls[i]
		if g.Fn != c.Fn || len(g.Args) != len(c.Args) {
			t.Fatalf("call %d: %s/%d args, want %s/%d", i, g.Fn, len(g.Args), c.Fn, len(c.Args))
		}
		for j := range c.Args {
			if g.Args[j] != c.Args[j] {
				t.Errorf("call %s arg %d: %+v, want %+v", c.Fn, j, g.Args[j], c.Args[j])
			}
		}
	}
	if again := rtEncodeWork(got); !bytes.Equal(again, msg) {
		t.Error("re-encoding the decoded work order changes its bytes")
	}

	res := &rtResult{Parallel: math.MaxInt64, Fallback: -3, Seconds: math.SmallestNonzeroFloat64, Arrays: wireArrays()}
	rmsg := rtEncodeResult(res)
	rgot, err := rtDecodeResult(rmsg)
	if err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if rgot.Parallel != res.Parallel || rgot.Fallback != res.Fallback ||
		math.Float64bits(rgot.Seconds) != math.Float64bits(res.Seconds) {
		t.Fatalf("counters %d/%d/%v, want %d/%d/%v", rgot.Parallel, rgot.Fallback, rgot.Seconds,
			res.Parallel, res.Fallback, res.Seconds)
	}
	sameArrays(t, res.Arrays, rgot.Arrays)

	// The two directions do not accept each other's messages.
	if _, err := rtDecodeResult(msg); err == nil {
		t.Error("a work order decoded as a result")
	}
	if _, err := rtDecodeWork(rmsg); err == nil {
		t.Error("a result decoded as a work order")
	}
}

// workMsg assembles a work order by hand: the header, then the parts
// as strings (length-prefixed), bytes, uint32 counts, uint64 words and
// raw bytes.
func workMsg(parts ...any) []byte {
	e := rtNewEnc(rtMagicWork, nil)
	for _, p := range parts {
		switch v := p.(type) {
		case string:
			e.str(v)
		case byte:
			e.u8(v)
		case uint32:
			e.u32(v)
		case uint64:
			e.u64(v)
		case int64:
			e.u64(uint64(v))
		case []byte:
			e.b = append(e.b, v...)
		default:
			panic(v)
		}
	}
	return e.b
}

// oneArray is a work order for two workers with no guards and no calls
// whose single array is the given parts.
func oneArray(parts ...any) []byte {
	head := []any{int64(2), uint32(0), uint32(1)}
	return workMsg(append(append(head, parts...), uint32(0))...)
}

// oneCall is a work order for two workers with no guards and no arrays
// whose single call is the given parts.
func oneCall(parts ...any) []byte {
	return workMsg(append([]any{int64(2), uint32(0), uint32(0), uint32(1)}, parts...)...)
}

// TestWireDecodeRejects feeds malformed messages to the decoder: each
// must come back as an error naming the fault, never a panic and never
// a partial work order.
func TestWireDecodeRejects(t *testing.T) {
	valid := oneArray("a", byte(0), uint32(1), int64(2), uint64(2), int64(5), int64(6))
	if _, err := rtDecodeWork(valid); err != nil {
		t.Fatalf("hand-built message rejected: %v", err)
	}
	withVersion := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(withVersion[4:], 99)

	cases := []struct {
		name, want string
		msg        []byte
	}{
		{"empty", "not a SSWO message", nil},
		{"bad magic", "not a SSWO message", append([]byte("XXXX"), valid[4:]...)},
		{"bad version", "version 99", withVersion},
		{"no workers", "truncated", workMsg()},
		{"no calls", "truncated", valid[:len(valid)-4]},
		{"element past end", "truncated", oneArray("a", byte(0), uint32(1), int64(2), uint64(2), int64(5))},
		{"trailing bytes", "3 trailing bytes", append(append([]byte(nil), valid...), 1, 2, 3)},
		{"negative dim", "negative dim -2", oneArray("a", byte(0), uint32(1), int64(-2), uint64(0))},
		{"dims overflow", "overflow", oneArray("a", byte(0), uint32(2), int64(1<<32), int64(1<<32), uint64(0))},
		{"count differs from dims", "array a: 3 values for dims [2]", oneArray("a", byte(0), uint32(1), int64(2), uint64(3), make([]byte, 24))},
		{"elements past end", "truncated", oneArray("a", byte(1), uint32(1), int64(1<<40), uint64(1<<40))},
		{"dim count past end", "dims in", oneArray("a", byte(0), uint32(1<<30), make([]byte, 16))},
		{"float flag", "float flag 7", oneArray("a", byte(7), uint32(0), uint64(1), int64(0))},
		{"array count past end", "arrays in", workMsg(int64(2), uint32(0), uint32(1<<20))},
		{"guard count past end", "fail guards in", workMsg(int64(2), uint32(1<<20))},
		{"name past end", "truncated", workMsg(int64(2), uint32(1), uint32(1<<31))},
		{"call count past end", "calls in", workMsg(int64(2), uint32(0), uint32(0), uint32(1<<20))},
		{"arg count past end", "args in", oneCall("k", uint32(1<<31))},
		{"unknown arg kind", "unknown kind 9", oneCall("k", uint32(1), byte(9), int64(0))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w, err := rtDecodeWork(c.msg)
			if err == nil {
				t.Fatalf("accepted: %+v", w)
			}
			if w != nil {
				t.Errorf("returned a work order with the error %v", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// wireAllocBound is the most a decode may allocate for a message of n
// bytes: each decoded item costs a fixed multiple of the bytes that
// encode it, plus a constant for the error path and the top-level
// structs.
func wireAllocBound(n int) uint64 { return 32*uint64(n) + 16<<10 }

// wireSeedKernels are the six kernels the native tier runs. Their quick
// work orders are 3-22 kB; the stencil kernels' run to megabytes, which
// would leave the mutator little time for anything else.
var wireSeedKernels = []string{"AMGmk", "SDDMM", "UA(transf)", "CHOLMOD-Supernodal", "Scatter-Shuffle", "CG"}

// FuzzWireDecode feeds arbitrary bytes to both decoders. Decoding must
// never panic, must never allocate more than the input can hold, and a
// message it accepts must re-encode to a fixed point.
func FuzzWireDecode(f *testing.F) {
	for _, name := range wireSeedKernels {
		w := corpus.NewWork(corpus.ByName(name), corpus.ScaleQuick)
		in, err := InputFromWork(w, 2, nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(in)
	}
	f.Add(rtEncodeResult(&rtResult{Parallel: 1, Seconds: 0.5, Arrays: wireArrays()}))
	f.Fuzz(func(t *testing.T, msg []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w, werr := rtDecodeWork(msg)
		r, rerr := rtDecodeResult(msg)
		runtime.ReadMemStats(&after)
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, wireAllocBound(len(msg)); alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes (bound %d)", len(msg), alloc, bound)
		}
		if werr == nil {
			again := rtEncodeWork(w)
			w2, err := rtDecodeWork(again)
			if err != nil {
				t.Fatalf("re-encoded work order rejected: %v", err)
			}
			if !bytes.Equal(rtEncodeWork(w2), again) {
				t.Fatal("work order encoding is not a fixed point")
			}
		}
		if rerr == nil {
			again := rtEncodeResult(r)
			r2, err := rtDecodeResult(again)
			if err != nil {
				t.Fatalf("re-encoded result rejected: %v", err)
			}
			if !bytes.Equal(rtEncodeResult(r2), again) {
				t.Fatal("result encoding is not a fixed point")
			}
		}
	})
}
