// Package store is a crash-safe on-disk content-addressed result store:
// the persistent tier under the daemon's in-memory result cache, so a
// restarted daemon serves its working set warm instead of recomputing
// it. The analysis is a pure function of the key, so entries have no
// TTL and no invalidation — only capacity (LRU eviction by total bytes)
// and integrity.
//
// Integrity is the whole design. Every entry is a single file named
// <key>.res with the layout
//
//	offset 0   magic "SSRS1\x00"               (6 bytes)
//	offset 6   body length, big-endian uint64  (8 bytes)
//	offset 14  SHA-256 of the body             (32 bytes)
//	offset 46  body                            (length bytes)
//
// and is written crash-safely: the bytes go to a <key>.tmp file first,
// which is fsynced, closed, and atomically renamed over the final name,
// after which the directory is fsynced. A crash at any point therefore
// leaves either the complete old state or the complete new state —
// never a partially visible entry; leftover .tmp files are deleted on
// Open. A read that finds a damaged entry (bad magic, short file, wrong
// length, checksum mismatch) quarantines the file by renaming it to
// <key>.bad and reports a miss, so corruption is recomputed, never
// served, and the evidence survives for inspection.
//
// Failpoints (internal/faults, chaos suite): site "store.write" mode
// "crash" abandons a write after the partial temp file — simulating the
// process dying mid-write — and site "store.read" mode "corrupt" makes
// the next read treat the entry as damaged.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/lru"
)

const (
	magic      = "SSRS1\x00"
	headerSize = len(magic) + 8 + sha256.Size
	entryExt   = ".res"
	tmpExt     = ".tmp"
	badExt     = ".bad"
)

// Store is the on-disk cache. All methods are safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64
	// index maps each visible entry's key to its file size (header
	// included); evicting a key removes its file.
	index *lru.Cache[string, int64]

	writes      atomic.Int64
	quarantined atomic.Int64
	writeErrors atomic.Int64
	tmpCleaned  atomic.Int64
}

// Open scans dir (creating it if needed), removes leftover temp files
// from interrupted writes, rebuilds the LRU index ordered by file
// modification time, and evicts oldest-first until the byte bound
// holds. maxBytes <= 0 selects 256 MiB.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, maxBytes: maxBytes}
	s.index = lru.New(lru.Config[string, int64]{
		MaxBytes: maxBytes,
		Size:     func(_ string, size int64) int64 { return size },
		OnEvict:  func(key string, _ int64) { os.Remove(s.path(key, entryExt)) },
	})

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type scanned struct {
		key   string
		size  int64
		mtime int64
	}
	var found []scanned
	for _, de := range entries {
		name := de.Name()
		switch {
		case filepath.Ext(name) == tmpExt:
			// An interrupted write: the rename never happened, so the
			// entry was never visible. Discard the partial bytes.
			if os.Remove(filepath.Join(dir, name)) == nil {
				s.tmpCleaned.Add(1)
			}
		case filepath.Ext(name) == entryExt:
			info, err := de.Info()
			if err != nil {
				continue
			}
			key := name[:len(name)-len(entryExt)]
			if !validKey(key) {
				continue
			}
			found = append(found, scanned{key: key, size: info.Size(), mtime: info.ModTime().UnixNano()})
		}
	}
	// Oldest first, so the newest entries end up most recently used and
	// the byte bound evicts the oldest.
	sort.Slice(found, func(i, j int) bool { return found[i].mtime < found[j].mtime })
	for _, f := range found {
		if !s.index.Put(f.key, f.size) {
			os.Remove(s.path(f.key, entryExt)) // larger than the whole bound
		}
	}
	return s, nil
}

// validKey accepts keys that are safe as file names. The server's keys
// are SHA-256 hex, so this is belt-and-braces against path traversal.
func validKey(key string) bool {
	if key == "" || len(key) > 128 {
		return false
	}
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

func (s *Store) path(key, ext string) string { return filepath.Join(s.dir, key+ext) }

// Get returns the stored body for key. A damaged or vanished entry is
// dropped from the index and counted as a miss; a damaged one is also
// quarantined to <key>.bad.
func (s *Store) Get(key string) ([]byte, bool) {
	// Only valid keys enter the index, so a hostile key misses here,
	// before any path is built from it.
	if _, ok := s.index.Get(key); !ok {
		return nil, false
	}
	raw, err := os.ReadFile(s.path(key, entryExt))
	if err != nil {
		// The file vanished under us (eviction race, external deletion).
		s.index.Invalidate(key)
		return nil, false
	}
	body, derr := decode(raw)
	if mode, ok := faults.Fire("store.read", key); ok && mode == "corrupt" {
		derr = errors.New("fault injected: entry corrupt")
	}
	if derr != nil {
		os.Rename(s.path(key, entryExt), s.path(key, badExt))
		s.index.Invalidate(key)
		s.quarantined.Add(1)
		return nil, false
	}
	return body, true
}

// decode validates one entry file and returns its body.
func decode(raw []byte) ([]byte, error) {
	if len(raw) < headerSize {
		return nil, fmt.Errorf("entry truncated: %d bytes", len(raw))
	}
	if string(raw[:len(magic)]) != magic {
		return nil, errors.New("bad magic")
	}
	n := binary.BigEndian.Uint64(raw[len(magic):])
	body := raw[headerSize:]
	if uint64(len(body)) != n {
		return nil, fmt.Errorf("length mismatch: header %d, body %d", n, len(body))
	}
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], raw[len(magic)+8:headerSize]) {
		return nil, errors.New("checksum mismatch")
	}
	return body, nil
}

// Put stores body under key crash-safely. Re-putting an existing key
// only refreshes its recency (the analysis is deterministic, so the
// bytes are identical). Bodies larger than the store bound are skipped.
func (s *Store) Put(key string, body []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	size := int64(headerSize + len(body))
	if size > s.maxBytes {
		return nil
	}
	if s.index.Touch(key) {
		return nil
	}
	if err := s.writeEntry(key, body); err != nil {
		s.writeErrors.Add(1)
		return err
	}
	s.writes.Add(1)
	s.index.Put(key, size)
	return nil
}

// writeEntry performs the temp → fsync → rename → fsync-dir dance.
func (s *Store) writeEntry(key string, body []byte) error {
	buf := make([]byte, headerSize, headerSize+len(body))
	copy(buf, magic)
	binary.BigEndian.PutUint64(buf[len(magic):], uint64(len(body)))
	sum := sha256.Sum256(body)
	copy(buf[len(magic)+8:], sum[:])
	buf = append(buf, body...)

	// Unique temp name per writer: two concurrent Puts of one key (rare,
	// but possible when a key is recomputed after eviction) each write
	// their own file and the atomic renames leave whichever finished
	// last — identical bytes either way, never an interleaving.
	f, err := os.CreateTemp(s.dir, key+"-*"+tmpExt)
	if err != nil {
		return err
	}
	tmp := f.Name()
	if mode, ok := faults.Fire("store.write", key); ok && mode == "crash" {
		// Simulated crash mid-write: some bytes reach the temp file, then
		// the "process dies" — no rename, no cleanup. The entry must never
		// become visible; Open removes the orphan.
		f.Write(buf[:len(buf)/2])
		f.Close()
		return errors.New("fault injected: crash mid-write")
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, s.path(key, entryExt)); err != nil {
		os.Remove(tmp)
		return err
	}
	return s.syncDir()
}

// syncDir fsyncs the store directory so the rename itself is durable.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Len reports the number of visible entries.
func (s *Store) Len() int { return s.index.Len() }

// LRUStats returns the index's counters: a hit is a verified body, and a
// damaged or vanished entry counts as a miss.
func (s *Store) LRUStats() lru.Stats { return s.index.Stats() }

// Stats is a snapshot of the store's counters for /v1/stats and
// /metrics.
type Stats struct {
	Dir         string `json:"dir"`
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
	MaxBytes    int64  `json:"max_bytes"`
	Hits        int64  `json:"hits"`
	Misses      int64  `json:"misses"`
	Writes      int64  `json:"writes"`
	WriteErrors int64  `json:"write_errors"`
	Evictions   int64  `json:"evictions"`
	Quarantined int64  `json:"quarantined"`
	TmpCleaned  int64  `json:"tmp_cleaned"`
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	st := s.index.Stats()
	return Stats{
		Dir:         s.dir,
		Entries:     st.Entries,
		Bytes:       st.Bytes,
		MaxBytes:    s.maxBytes,
		Hits:        st.Hits,
		Misses:      st.Misses,
		Writes:      s.writes.Load(),
		WriteErrors: s.writeErrors.Load(),
		Evictions:   st.Evictions,
		Quarantined: s.quarantined.Load(),
		TmpCleaned:  s.tmpCleaned.Load(),
	}
}

// Close releases the store. Writes are already durable at Put return;
// Close exists so callers have a clear lifecycle hook and is a final
// directory sync.
func (s *Store) Close() error { return s.syncDir() }
