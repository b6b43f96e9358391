package codegen

// The native wire codec: the work order a generated binary reads on
// stdin and the result it writes to stdout. The harness compiles this
// file as part of package codegen, and EmitPackage copies it verbatim
// into every emitted package (package clause rewritten to main), so
// both ends of the pipe share one encoder and one decoder. It must stay
// stdlib-only, and every identifier it declares carries the rt prefix
// reserved for the emitted runtime.
//
// A message is an 8-byte header, a 4-byte magic naming its direction
// and a little-endian uint32 version, followed by its fields in one
// fixed order. Integers are 8-byte little-endian two's complement,
// floats travel as their IEEE-754 bit patterns (math.Float64bits), so
// every value crosses bit-exact, a string is a uint32 length and its
// bytes, and a list is a uint32 count and its items.
//
//	work order  worker count, fail-guard labels (list of strings),
//	            arrays (list), calls (list)
//	result      parallel and fallback counters, seconds, arrays (list)
//
// An array is its name, a float flag byte, a uint32 dim count, the
// dims, a uint64 element count and the elements. A call is the function
// name and a list of arguments, each a kind byte followed by an int64,
// a float64 bit pattern or an array name.
//
// The decoder checks every length and count against the bytes that
// remain before it allocates, so a message can never make it allocate
// more than a small multiple of its own size, and it reports malformed
// input, bytes after the last field included, as an error, never a
// panic.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

const (
	rtMagicWork   = "SSWO"
	rtMagicResult = "SSWR"
	rtWireVersion = 1
)

// Argument kinds on the wire.
const (
	rtKindInt   byte = 0
	rtKindFloat byte = 1
	rtKindArray byte = 2
)

// rtArg is one call argument: an int64 (its two's-complement bits), a
// float64 (its IEEE-754 bits), or the name of a work-order array.
type rtArg struct {
	Kind byte
	Bits uint64
	Name string
}

// rtArray is a flat row-major array on the wire. Ints holds the
// elements of an int array, Flts those of a float array.
type rtArray struct {
	Name  string
	Float bool
	Dims  []int64
	Ints  []int64
	Flts  []float64
}

// elems is the element count the array carries.
func (a *rtArray) elems() int {
	if a.Float {
		return len(a.Flts)
	}
	return len(a.Ints)
}

// rtCall is one entry of the call sequence.
type rtCall struct {
	Fn   string
	Args []rtArg
}

// rtWork is a work order: the worker count, the regions whose entry
// verification is forced to fail ("*" forces all), the input arrays and
// the calls to run on them.
type rtWork struct {
	Workers    int64
	FailGuards []string
	Arrays     []rtArray
	Calls      []rtCall
}

// rtResult is a binary's answer: its region counters, the wall time of
// the call sequence and the end state of every work-order array.
type rtResult struct {
	Parallel, Fallback int64
	Seconds            float64
	Arrays             []rtArray
}

// rtEnc appends a message to one buffer.
type rtEnc struct{ b []byte }

func rtNewEnc(magic string, arrays []rtArray) *rtEnc {
	size := 64
	for i := range arrays {
		size += 64 + len(arrays[i].Name) + 8*len(arrays[i].Dims) + 8*arrays[i].elems()
	}
	e := &rtEnc{b: make([]byte, 0, size)}
	e.b = append(e.b, magic...)
	e.b = binary.LittleEndian.AppendUint32(e.b, rtWireVersion)
	return e
}

func (e *rtEnc) u8(v byte)    { e.b = append(e.b, v) }
func (e *rtEnc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *rtEnc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

func (e *rtEnc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

func (e *rtEnc) arrays(as []rtArray) {
	e.u32(uint32(len(as)))
	for i := range as {
		a := &as[i]
		e.str(a.Name)
		flag := byte(0)
		if a.Float {
			flag = 1
		}
		e.u8(flag)
		e.u32(uint32(len(a.Dims)))
		for _, d := range a.Dims {
			e.u64(uint64(d))
		}
		n := a.elems()
		e.u64(uint64(n))
		at := len(e.b)
		e.b = append(e.b, make([]byte, 8*n)...)
		dst := e.b[at:]
		if a.Float {
			for i, f := range a.Flts {
				binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(f))
			}
		} else {
			for i, v := range a.Ints {
				binary.LittleEndian.PutUint64(dst[8*i:], uint64(v))
			}
		}
	}
}

// rtEncodeWork encodes a work order.
func rtEncodeWork(w *rtWork) []byte {
	e := rtNewEnc(rtMagicWork, w.Arrays)
	e.u64(uint64(w.Workers))
	e.u32(uint32(len(w.FailGuards)))
	for _, g := range w.FailGuards {
		e.str(g)
	}
	e.arrays(w.Arrays)
	e.u32(uint32(len(w.Calls)))
	for _, c := range w.Calls {
		e.str(c.Fn)
		e.u32(uint32(len(c.Args)))
		for _, a := range c.Args {
			e.u8(a.Kind)
			if a.Kind == rtKindArray {
				e.str(a.Name)
			} else {
				e.u64(a.Bits)
			}
		}
	}
	return e.b
}

// rtEncodeResult encodes a binary's result.
func rtEncodeResult(r *rtResult) []byte {
	e := rtNewEnc(rtMagicResult, r.Arrays)
	e.u64(uint64(r.Parallel))
	e.u64(uint64(r.Fallback))
	e.u64(math.Float64bits(r.Seconds))
	e.arrays(r.Arrays)
	return e.b
}

var rtErrTruncated = errors.New("truncated")

// rtDec reads a message. The first failed read records an error and
// every later read returns zero values.
type rtDec struct {
	b   []byte
	err error
}

// need reports whether n more bytes remain, recording an error if not.
func (d *rtDec) need(n uint64) bool {
	if d.err != nil {
		return false
	}
	if n > uint64(len(d.b)) {
		d.err = rtErrTruncated
		return false
	}
	return true
}

func (d *rtDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *rtDec) u8() byte {
	if !d.need(1) {
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *rtDec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *rtDec) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *rtDec) str() string {
	n := d.u32()
	if !d.need(uint64(n)) {
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// count reads a uint32 count of items that take at least size bytes
// each, rejecting counts the remaining bytes cannot hold.
func (d *rtDec) count(size uint64, what string) int {
	n := d.u32()
	if d.err == nil && uint64(n) > uint64(len(d.b))/size {
		d.fail("%d %s in %d bytes", n, what, len(d.b))
		return 0
	}
	return int(n)
}

// arrays reads a list of arrays; the shortest array is an empty name,
// a flag, a dim count and an element count.
func (d *rtDec) arrays() []rtArray {
	as := make([]rtArray, d.count(17, "arrays"))
	for i := range as {
		as[i] = d.array()
	}
	return as
}

func (d *rtDec) array() rtArray {
	a := rtArray{Name: d.str()}
	switch flag := d.u8(); flag {
	case 0:
	case 1:
		a.Float = true
	default:
		d.fail("array %s: float flag %d", a.Name, flag)
	}
	a.Dims = make([]int64, d.count(8, "dims"))
	total := int64(1)
	for i := range a.Dims {
		dim := int64(d.u64())
		if dim < 0 {
			d.fail("array %s: negative dim %d", a.Name, dim)
			return a
		}
		if dim != 0 && total > math.MaxInt64/dim {
			d.fail("array %s: dims %v then %d overflow", a.Name, a.Dims[:i], dim)
			return a
		}
		total *= dim
		a.Dims[i] = dim
	}
	n := d.u64()
	if d.err != nil {
		return a
	}
	if n != uint64(total) {
		d.fail("array %s: %d values for dims %v", a.Name, n, a.Dims)
		return a
	}
	if n > uint64(len(d.b))/8 {
		d.err = rtErrTruncated
		return a
	}
	src := d.b[:8*n]
	d.b = d.b[8*n:]
	if a.Float {
		a.Flts = make([]float64, n)
		for i := range a.Flts {
			a.Flts[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
	} else {
		a.Ints = make([]int64, n)
		for i := range a.Ints {
			a.Ints[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
		}
	}
	return a
}

func (d *rtDec) call() rtCall {
	c := rtCall{Fn: d.str()}
	// The shortest argument is a kind byte and an empty name's length.
	c.Args = make([]rtArg, d.count(5, "args"))
	for i := range c.Args {
		a := &c.Args[i]
		a.Kind = d.u8()
		switch a.Kind {
		case rtKindInt, rtKindFloat:
			a.Bits = d.u64()
		case rtKindArray:
			a.Name = d.str()
		default:
			d.fail("call %s arg %d: unknown kind %d", c.Fn, i, a.Kind)
			return c
		}
	}
	return c
}

// rtOpen checks the header of msg and returns a decoder for the rest.
func rtOpen(msg []byte, magic string) (*rtDec, error) {
	if len(msg) < 8 || string(msg[:4]) != magic {
		return nil, fmt.Errorf("wire: not a %s message", magic)
	}
	if v := binary.LittleEndian.Uint32(msg[4:8]); v != rtWireVersion {
		return nil, fmt.Errorf("wire: version %d, want %d", v, rtWireVersion)
	}
	return &rtDec{b: msg[8:]}, nil
}

// end reports the first error of the decode, or bytes left after the
// last field.
func (d *rtDec) end() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return fmt.Errorf("wire: %w", d.err)
	}
	return nil
}

// rtDecodeWork decodes a work order.
func rtDecodeWork(msg []byte) (*rtWork, error) {
	d, err := rtOpen(msg, rtMagicWork)
	if err != nil {
		return nil, err
	}
	w := &rtWork{Workers: int64(d.u64())}
	w.FailGuards = make([]string, d.count(4, "fail guards"))
	for i := range w.FailGuards {
		w.FailGuards[i] = d.str()
	}
	w.Arrays = d.arrays()
	// The shortest call is an empty name and an argument count.
	w.Calls = make([]rtCall, d.count(8, "calls"))
	for i := range w.Calls {
		w.Calls[i] = d.call()
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return w, nil
}

// rtDecodeResult decodes a binary's result.
func rtDecodeResult(msg []byte) (*rtResult, error) {
	d, err := rtOpen(msg, rtMagicResult)
	if err != nil {
		return nil, err
	}
	r := &rtResult{
		Parallel: int64(d.u64()),
		Fallback: int64(d.u64()),
		Seconds:  math.Float64frombits(d.u64()),
	}
	r.Arrays = d.arrays()
	if err := d.end(); err != nil {
		return nil, err
	}
	return r, nil
}
