package server

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"codepack/internal/peer"
)

// diskStore persists the content-addressed compression cache across
// restarts as one file per verified entry, named by the entry's key (the
// hex SHA-256 of the program image) and holding
//
//	[8]   magic     "CPKENT01"
//	[8]   seq       write sequence, little endian
//	[32]  sum       SHA-256 of the payload
//	[...] payload   the marshalled compressed program
//
// An entry's bytes never change, so there is nothing to compact: a file
// is written once to its final name when its entry becomes verified and
// removed when the entry is evicted. A crash mid-write leaves a file
// whose sum does not match, which the next boot removes, so no temp
// file or rename is needed. Files whose names are not keys are never
// read, written or removed.
type diskStore struct {
	dir string
	log *slog.Logger

	// mu serializes writes and removals. compCache.persist holds it
	// while it re-checks the entry under the cache lock, so the file
	// ends up matching the cache's last word on the key.
	mu     sync.Mutex
	seq    uint64 // sequence of the next write
	closed bool

	stats storeStats
}

// storeStats counts persistence activity; read it via (*diskStore).statsSnapshot.
type storeStats struct {
	RestoredEntries uint64
	RecordsSkipped  uint64
	Appends         uint64
	AppendErrors    uint64
}

// storedEntry is one intact entry file read at boot.
type storedEntry struct {
	key     string
	payload []byte
	seq     uint64
}

const (
	entryMagic  = "CPKENT01"
	entryHeader = len(entryMagic) + 8 + sha256.Size
)

var errStoreClosed = errors.New("store: closed")

// openStore opens (creating if needed) the cache directory and returns
// the store plus every intact entry, oldest write first. Damaged entry
// files are removed and counted; only directory errors fail the open.
func openStore(dir string, logger *slog.Logger) (*diskStore, []storedEntry, error) {
	if logger == nil {
		logger = slog.Default()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("cache dir: %w", err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("cache dir: %w", err)
	}
	st := &diskStore{dir: dir, log: logger}
	var entries []storedEntry
	for _, de := range names {
		key := de.Name()
		if !peer.ValidDigest(key) || !de.Type().IsRegular() {
			continue
		}
		raw, err := os.ReadFile(st.path(key))
		seq, payload, ok := decodeEntry(raw)
		if err != nil || !ok {
			st.discard(key, "damaged or unreadable")
			continue
		}
		entries = append(entries, storedEntry{key: key, payload: payload, seq: seq})
		st.seq = max(st.seq, seq+1)
	}
	slices.SortFunc(entries, func(a, b storedEntry) int { return cmp.Compare(a.seq, b.seq) })
	return st, entries, nil
}

func encodeEntry(seq uint64, payload []byte) []byte {
	b := make([]byte, entryHeader+len(payload))
	copy(b, entryMagic)
	binary.LittleEndian.PutUint64(b[len(entryMagic):], seq)
	sum := sha256.Sum256(payload)
	copy(b[len(entryMagic)+8:], sum[:])
	copy(b[entryHeader:], payload)
	return b
}

// decodeEntry accepts raw only when its header is intact and its payload
// matches the recorded SHA-256. The payload aliases raw.
func decodeEntry(raw []byte) (seq uint64, payload []byte, ok bool) {
	if len(raw) < entryHeader || string(raw[:len(entryMagic)]) != entryMagic {
		return 0, nil, false
	}
	payload = raw[entryHeader:]
	if sha256.Sum256(payload) != [sha256.Size]byte(raw[len(entryMagic)+8:entryHeader]) {
		return 0, nil, false
	}
	return binary.LittleEndian.Uint64(raw[len(entryMagic):]), payload, true
}

func (st *diskStore) path(key string) string { return filepath.Join(st.dir, key) }

// write stores payload as key's entry file under the next sequence
// number. Callers hold st.mu. Errors are counted; the cache keeps
// serving from memory either way.
func (st *diskStore) write(key string, payload []byte) error {
	if st.closed {
		return errStoreClosed
	}
	if !peer.ValidDigest(key) {
		return fmt.Errorf("store: key %q is not a digest", key)
	}
	st.stats.Appends++
	if err := os.WriteFile(st.path(key), encodeEntry(st.seq, payload), 0o644); err != nil {
		st.stats.AppendErrors++
		return fmt.Errorf("store: write: %w", err)
	}
	st.seq++
	return nil
}

// remove deletes key's entry file if there is one. Callers hold st.mu.
func (st *diskStore) remove(key string) error {
	if st.closed {
		return errStoreClosed
	}
	if !peer.ValidDigest(key) {
		return nil // never written
	}
	if err := os.Remove(st.path(key)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		st.stats.AppendErrors++
		return fmt.Errorf("store: remove: %w", err)
	}
	return nil
}

// discard removes an entry file that cannot be restored and counts it.
func (st *diskStore) discard(key, why string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.stats.RecordsSkipped++
	st.log.Warn("cache entry file removed", "key", key, "reason", why)
	if err := st.remove(key); err != nil {
		st.log.Warn("cache entry removal failed", "key", key, "err", err)
	}
}

// close makes every entry file durable — each file, then the directory
// that names them — and stops further writes (the SIGTERM flush).
func (st *diskStore) close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	names, err := os.ReadDir(st.dir)
	if err != nil {
		return fmt.Errorf("store: close: %w", err)
	}
	for _, de := range names {
		if peer.ValidDigest(de.Name()) && de.Type().IsRegular() {
			if serr := syncPath(st.path(de.Name())); err == nil {
				err = serr
			}
		}
	}
	if serr := syncPath(st.dir); err == nil {
		err = serr
	}
	return err
}

func (st *diskStore) statsSnapshot() storeStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// syncPath fsyncs a file or directory.
func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
