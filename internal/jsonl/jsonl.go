// Package jsonl is the append-only JSON-lines log behind every
// crash-tolerant file in the repository: the result store sweeps and
// the job daemon share, the daemon's job store, and the chaos corpus.
// It owns the durability contract so that no owner re-implements it:
//
//   - One Write per record. Append marshals a value and writes it plus
//     its '\n' in a single call, so a kill mid-write tears at most that
//     one line. Lines are byte-identical to json.Marshal output.
//   - No fsync per append. A crash may lose the newest records but
//     never reorders or corrupts earlier ones; the owners re-derive
//     anything lost (a re-run job, a re-cached result).
//   - A torn tail is terminated on open. When the file does not end in
//     '\n', the first Append writes one ahead of its record, so the
//     partial line stays a single line that replay skips instead of
//     swallowing the next record. Nothing is ever truncated: a
//     parseable last line that merely lacks its '\n' is kept.
//   - Rewrites are atomic and synced. Rewrite builds a temporary file,
//     syncs it, renames it over the log and swaps the handle, so a crash
//     leaves either the old file or the complete new one.
//
// A Log takes no locks; each owner already serialises its appends.
package jsonl

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// maxLine is the longest line scan reads; a longer one fails the scan.
const maxLine = 16 << 20

// scan feeds every non-empty line of r to fn. A line fn rejects
// (returns false) — a truncated final line from a kill mid-write, or
// any other corruption — is counted and skipped, never fatal: losing
// one in-flight record must not discard the rest of a log.
func scan(r io.Reader, fn func(line []byte) bool) (skipped int, err error) {
	sc := bufio.NewScanner(r)
	// No initial buffer: the scanner starts from its own small default
	// and grows it only as far as the longest line, up to the cap.
	sc.Buffer(nil, maxLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if !fn(line) {
			skipped++
		}
	}
	return skipped, sc.Err()
}

// Log is an open append-only JSONL file.
type Log struct {
	f    *os.File
	path string
	torn bool  // the file does not end in '\n'; the next Append terminates it
	err  error // first append error, latched
}

// Open opens (creating if absent) the log at path, replays every line
// through fn as scan does, and positions for appending. It reports how
// many lines fn rejected.
func Open(path string, fn func(line []byte) bool) (*Log, int, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("jsonl: %w", err)
	}
	l := &Log{f: f, path: path}
	skipped, err := scan(f, fn)
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("jsonl: read %s: %w", path, err)
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err == nil && end > 0 {
		last := make([]byte, 1)
		_, err = f.ReadAt(last, end-1)
		l.torn = last[0] != '\n'
	}
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("jsonl: read tail of %s: %w", path, err)
	}
	return l, skipped, nil
}

// Append writes v as one line. The first marshal or write error
// latches — an owner must not die on log I/O — and every later Append
// is dropped; Err and Close report it.
func (l *Log) Append(v any) {
	if l.err != nil {
		return
	}
	var err error
	if l.torn {
		_, err = l.f.Write([]byte{'\n'})
		l.torn = false
	}
	if err == nil {
		// Encode marshals as json.Marshal does and issues one Write of
		// the record plus its '\n'.
		err = json.NewEncoder(l.f).Encode(v)
	}
	if err != nil {
		l.err = fmt.Errorf("jsonl: append to %s: %w", l.path, err)
	}
}

// Rewrite atomically replaces the log's contents with the records emit
// encodes: they go to a temporary file that is synced and renamed over
// the log, and later appends go to the new file. If emit or any step
// fails, the old file is left intact and still open.
func (l *Log) Rewrite(emit func(enc *json.Encoder) error) error {
	tmp := l.path + ".tmp"
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("jsonl: rewrite: %w", err)
	}
	err = emit(json.NewEncoder(nf))
	if err == nil {
		err = nf.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		nf.Close()
		os.Remove(tmp)
		return fmt.Errorf("jsonl: rewrite %s: %w", l.path, err)
	}
	l.f.Close()
	l.f, l.torn = nf, false
	return nil
}

// Err returns the first latched append error.
func (l *Log) Err() error { return l.err }

// Close closes the file, returning any latched append error first so a
// log with lost records is never mistaken for a complete one.
func (l *Log) Close() error {
	cerr := l.f.Close()
	if l.err != nil {
		return l.err
	}
	return cerr
}
