package jobs

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
// a uvarint of the encoding's length, then its DEFLATE stream. A
// daemon keeps every result it has produced, once in the cache and on
// each job that returned it, for as long as it runs, so its memory
// grows with every completed job; deflated, a result takes about a
// third of its size. Results are inflated per request, and the bytes
// served are exactly the canonical encoding that was packed.
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
		panic("jobs: packed result has no length")
	}
	out := make(json.RawMessage, size)
	r := unpackers.Get().(io.ReadCloser)
	r.(flate.Resetter).Reset(bytes.NewReader(p[k:]), nil)
	_, err := io.ReadFull(r, out)
	unpackers.Put(r)
	if err != nil {
		panic(fmt.Sprintf("jobs: packed result does not inflate: %v", err))
	}
	return out
}
