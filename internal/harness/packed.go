package harness

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// packedResult is a canonical Result encoding held deflated in memory:
// a uvarint of the encoding's length, then its DEFLATE stream. The
// result cache is the one place a daemon keeps a result, and it keeps
// every live one in this form; deflated, a result takes about a third
// of its size. Results are inflated per Get, and the bytes returned
// are exactly the encoding that was packed.
type packedResult []byte

var (
	packers   = sync.Pool{New: func() any { w, _ := flate.NewWriter(nil, flate.BestSpeed); return w }}
	unpackers = sync.Pool{New: func() any { return flate.NewReader(nil) }}
)

func packResult(raw json.RawMessage) packedResult {
	var buf bytes.Buffer
	buf.Grow(len(raw)/2 + binary.MaxVarintLen64)
	var n [binary.MaxVarintLen64]byte
	buf.Write(n[:binary.PutUvarint(n[:], uint64(len(raw)))])
	w := packers.Get().(*flate.Writer)
	w.Reset(&buf)
	// Writes to a bytes.Buffer cannot fail.
	w.Write(raw)
	w.Close()
	packers.Put(w)
	// An exact-size copy: the buffer's growth slack would stay resident
	// for as long as the result does.
	return packedResult(bytes.Clone(buf.Bytes()))
}

// unpack inflates p. p was produced by packResult in this process, so
// a malformed stream is a bug, not an input error.
func (p packedResult) unpack() json.RawMessage {
	size, k := binary.Uvarint(p)
	if k <= 0 {
		panic("harness: packed result has no length")
	}
	out := make(json.RawMessage, size)
	r := unpackers.Get().(io.ReadCloser)
	r.(flate.Resetter).Reset(bytes.NewReader(p[k:]), nil)
	_, err := io.ReadFull(r, out)
	unpackers.Put(r)
	if err != nil {
		panic(fmt.Sprintf("harness: packed result does not inflate: %v", err))
	}
	return out
}
