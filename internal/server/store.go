package server

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
)

// diskStore persists the content-addressed compression cache across
// restarts. The layout under the cache directory is:
//
//	cache.snap  — a compacted snapshot: one record per live entry,
//	              written to a temp file, fsynced and atomically renamed
//	              into place, so it is always either the old or the new
//	              complete snapshot, never a partial one.
//	cache.log   — an append-only log of entries inserted since the last
//	              snapshot. Appends are buffered by the OS (a cache does
//	              not need fsync-per-put); the log is synced when a
//	              snapshot is cut and on graceful close.
//
// Both files share one record format:
//
//	[4] crc32    IEEE CRC32 of the body (everything after bodyLen)
//	[4] bodyLen  length of the body in bytes, little endian
//	[2]   keyLen   cache-key length
//	[32]  sum      SHA-256 of the payload
//	[...] key      the cache key (hex SHA-256 of the program image)
//	[...] payload  the marshalled compressed program
//
// preceded by an 8-byte file magic. Recovery is tolerant by
// construction: a torn or CRC-corrupt frame ends replay and the log is
// truncated back to the last good record (the snapshot is read-only and
// just stops); a frame whose CRC holds but whose payload fails its
// SHA-256 or does not parse is skipped individually. A bad record can
// therefore cost cached work, never the process, and a recovered entry
// is never returned unless its payload re-verifies against the record's
// SHA-256.
type diskStore struct {
	dir string
	log *slog.Logger

	// Compaction policy: cut a snapshot when the log exceeds both
	// compactMinBytes and compactRatio times the last snapshot's size.
	compactMinBytes int64
	compactRatio    float64

	mu        sync.Mutex
	logFile   *os.File
	logBytes  int64
	snapBytes int64
	closed    bool

	stats storeStats
}

// storeStats counts persistence activity; read it via (*diskStore).statsSnapshot.
type storeStats struct {
	RestoredEntries uint64 `json:"restored_entries"`
	BytesReplayed   uint64 `json:"bytes_replayed"`
	RecordsSkipped  uint64 `json:"records_skipped"`
	TailTruncations uint64 `json:"tail_truncations"`
	Appends         uint64 `json:"appends"`
	AppendErrors    uint64 `json:"append_errors"`
	Compactions     uint64 `json:"compactions"`
	LogBytes        int64  `json:"log_bytes"`
	SnapshotBytes   int64  `json:"snapshot_bytes"`
}

// storedEntry is one cache entry read from or written to the store. On
// recovery the payload has already been verified against sum (the
// record's SHA-256); entries handed to compact leave sum unset, since
// encodeRecord hashes the payload itself.
type storedEntry struct {
	key     string
	payload []byte
	sum     [sha256.Size]byte
}

const (
	storeMagic   = "CPKCACH1"
	logFileName  = "cache.log"
	snapFileName = "cache.snap"

	// recordOverhead is the fixed cost of a record: crc + bodyLen +
	// keyLen + sum.
	recordHeader   = 8
	recordFixed    = 2 + sha256.Size
	maxRecordKey   = 256
	maxRecordBytes = 64 << 20 // sanity cap on bodyLen before allocating

	defaultCompactMinBytes = 1 << 20
	defaultCompactRatio    = 4.0
)

// openStore opens (creating if needed) the persistence directory, replays
// the snapshot and log, truncates any torn log tail, and returns the store
// ready for appends plus the recovered entries in replay order (oldest
// first; a key's last record wins).
func openStore(dir string, logger *slog.Logger) (*diskStore, []storedEntry, error) {
	if logger == nil {
		logger = slog.Default()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("cache dir: %w", err)
	}
	st := &diskStore{
		dir:             dir,
		log:             logger,
		compactMinBytes: defaultCompactMinBytes,
		compactRatio:    defaultCompactRatio,
	}

	var entries []storedEntry
	seen := make(map[string]int) // key -> index in entries

	merge := func(e storedEntry) {
		if i, ok := seen[e.key]; ok {
			// Later record wins and counts as a fresh touch: drop the
			// old slot so replay order stays LRU order.
			entries = append(entries[:i], entries[i+1:]...)
			for k, j := range seen {
				if j > i {
					seen[k] = j - 1
				}
			}
		}
		seen[e.key] = len(entries)
		entries = append(entries, e)
	}

	// Snapshot first: it is the older state the log layers on top of.
	snapPath := filepath.Join(dir, snapFileName)
	if raw, err := os.ReadFile(snapPath); err == nil {
		st.snapBytes = int64(len(raw))
		st.replay(raw, snapFileName, merge)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("read snapshot: %w", err)
	}

	logPath := filepath.Join(dir, logFileName)
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("open log: %w", err)
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("read log: %w", err)
	}
	good := st.replay(raw, logFileName, merge)
	if good < int64(len(raw)) {
		// Torn or corrupt tail: drop it so the next append starts a
		// clean frame at a known-good offset.
		st.stats.TailTruncations++
		st.log.Warn("cache log tail truncated",
			"file", logPath, "good_bytes", good, "dropped", int64(len(raw))-good)
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("truncate log tail: %w", err)
		}
	}
	if good == 0 {
		// New or fully-corrupt log: start from a fresh magic header.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("reset log: %w", err)
		}
		if _, err := f.WriteAt([]byte(storeMagic), 0); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("write log header: %w", err)
		}
		good = int64(len(storeMagic))
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("seek log: %w", err)
	}
	st.logFile = f
	st.logBytes = good
	st.stats.RestoredEntries = uint64(len(entries))
	return st, entries, nil
}

// replay decodes records from raw, calling merge for each verified entry,
// and returns the byte offset of the end of the last structurally good
// frame (0 if the magic is missing). Semantically bad records inside good
// frames are skipped; a framing failure stops replay.
func (st *diskStore) replay(raw []byte, name string, merge func(storedEntry)) int64 {
	if len(raw) < len(storeMagic) || string(raw[:len(storeMagic)]) != storeMagic {
		if len(raw) > 0 {
			st.log.Warn("cache file has bad magic, ignoring", "file", name)
		}
		return 0
	}
	off := int64(len(storeMagic))
	for {
		rest := raw[off:]
		if len(rest) == 0 {
			return off // clean end
		}
		if len(rest) < recordHeader {
			return off // torn header
		}
		crc := binary.LittleEndian.Uint32(rest)
		bodyLen := int64(binary.LittleEndian.Uint32(rest[4:]))
		if bodyLen < recordFixed || bodyLen > maxRecordBytes {
			return off // corrupt length field
		}
		if int64(len(rest)) < recordHeader+bodyLen {
			return off // torn body
		}
		body := rest[recordHeader : recordHeader+bodyLen]
		if crc32.ChecksumIEEE(body) != crc {
			return off // corrupt frame
		}
		off += recordHeader + bodyLen
		st.stats.BytesReplayed += uint64(recordHeader + bodyLen)

		keyLen := int64(binary.LittleEndian.Uint16(body))
		if keyLen == 0 || keyLen > maxRecordKey || recordFixed+keyLen > bodyLen {
			st.stats.RecordsSkipped++
			continue
		}
		var e storedEntry
		copy(e.sum[:], body[2:2+sha256.Size])
		e.key = string(body[recordFixed : recordFixed+keyLen])
		e.payload = append([]byte(nil), body[recordFixed+keyLen:]...)
		if sha256.Sum256(e.payload) != e.sum {
			st.stats.RecordsSkipped++
			st.log.Warn("cache record payload failed verification, skipping",
				"file", name, "key", e.key)
			continue
		}
		merge(e)
	}
}

// encodeRecord frames one entry.
func encodeRecord(key string, payload []byte) []byte {
	bodyLen := recordFixed + len(key) + len(payload)
	b := make([]byte, recordHeader+bodyLen)
	binary.LittleEndian.PutUint32(b[4:], uint32(bodyLen))
	body := b[recordHeader:]
	binary.LittleEndian.PutUint16(body, uint16(len(key)))
	sum := sha256.Sum256(payload)
	copy(body[2:], sum[:])
	copy(body[recordFixed:], key)
	copy(body[recordFixed+len(key):], payload)
	binary.LittleEndian.PutUint32(b, crc32.ChecksumIEEE(body))
	return b
}

// append logs one entry. Errors are recorded and reported but the cache
// keeps serving from memory: persistence is best-effort by design.
func (st *diskStore) append(key string, payload []byte) error {
	if len(key) == 0 || len(key) > maxRecordKey {
		return fmt.Errorf("store: bad key length %d", len(key))
	}
	rec := encodeRecord(key, payload)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return errors.New("store: closed")
	}
	n, err := st.logFile.Write(rec)
	st.logBytes += int64(n)
	st.stats.Appends++
	if err != nil {
		st.stats.AppendErrors++
		return fmt.Errorf("store: append: %w", err)
	}
	return nil
}

// needCompact reports whether the log has outgrown the snapshot enough to
// justify cutting a new one.
func (st *diskStore) needCompact() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed || st.logBytes < st.compactMinBytes {
		return false
	}
	return float64(st.logBytes) >= st.compactRatio*float64(max(st.snapBytes, 1))
}

// compact atomically replaces the snapshot with the entries returned by
// collect and resets the log. collect runs under the store lock so no
// append can slip between the collection and the log reset; callers must
// not hold the cache lock when calling compact (collect may take it).
func (st *diskStore) compact(collect func() []storedEntry) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return errors.New("store: closed")
	}
	entries := collect()

	tmpPath := filepath.Join(st.dir, snapFileName+".tmp")
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: snapshot temp: %w", err)
	}
	written := int64(0)
	writeAll := func(b []byte) error {
		n, err := tmp.Write(b)
		written += int64(n)
		return err
	}
	err = writeAll([]byte(storeMagic))
	for _, e := range entries {
		if err != nil {
			break
		}
		err = writeAll(encodeRecord(e.key, e.payload))
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(st.dir, snapFileName)); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("store: install snapshot: %w", err)
	}
	syncDir(st.dir)

	// The snapshot now covers everything; restart the log.
	if err := st.logFile.Truncate(int64(len(storeMagic))); err != nil {
		return fmt.Errorf("store: reset log: %w", err)
	}
	if _, err := st.logFile.Seek(int64(len(storeMagic)), io.SeekStart); err != nil {
		return fmt.Errorf("store: seek log: %w", err)
	}
	st.logBytes = int64(len(storeMagic))
	st.snapBytes = written
	st.stats.Compactions++
	return nil
}

// close syncs and closes the log. Call compact first to flush the final
// snapshot; close itself only makes the already-appended log durable.
func (st *diskStore) close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	err := st.logFile.Sync()
	if cerr := st.logFile.Close(); err == nil {
		err = cerr
	}
	return err
}

func (st *diskStore) statsSnapshot() storeStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.stats
	s.LogBytes = st.logBytes
	s.SnapshotBytes = st.snapBytes
	return s
}

// syncDir fsyncs a directory so a rename within it is durable;
// best-effort because not every platform supports it.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
