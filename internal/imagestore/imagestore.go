// Package imagestore persists checkpoint images across process runs.
//
// Booting the shared Android prefix dominates simulator start-up; within
// one process the checkpoint layer amortizes it by forking a cached
// proto image, but every fresh process pays the boot again. This store
// writes the proto image to disk once — content-addressed by the same
// canonical key checkpoint.Cache uses — and later processes admit it
// with a memory-mapped load: a checksum pass, a JSON decode of the small
// state, and in-place slice casts over the mapped file for the bulky
// arrays (frame table, PTEs, page-cache pages, cache arrays).
//
// Trust model: stored files are an optimization, never an authority. A
// file carries the SHA-256 of its body, taken by the writer. A load
// restores the machine, re-encodes it with the writer's own code and
// admits it only if that body hashes to the stored digest; any mismatch
// — corruption below the checksum's notice, a stale encoding, a decode
// that loses state, a struct-layout drift — discards the file and falls
// back to a cold boot, which then rewrites it. Writes go through a temp file and rename, so concurrent processes
// racing on one directory see either no file or a complete one.
package imagestore

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/workload"
)

// Store is an on-disk image store rooted at one directory. It
// implements checkpoint.ImageStore; misses and failed loads are
// indistinguishable to the caller, which boots cold either way.
type Store struct {
	dir string
	u   *workload.Universe
}

var _ checkpoint.ImageStore = (*Store)(nil)

// Open opens (creating if needed) the store rooted at dir, serving
// images booted from universe u. It errors on platforms whose struct
// layout the format cannot represent; callers should treat an error as
// "run without a store", not as fatal.
func Open(dir string, u *workload.Universe) (*Store, error) {
	if dir == "" {
		return nil, os.ErrInvalid
	}
	if err := layoutOK(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir, u: u}, nil
}

// DefaultDir is the conventional store location under the user's cache
// directory ("" if the platform defines none).
func DefaultDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "satsim", "imagestore")
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// fileName addresses a key's image: the hex SHA-256 of the full
// canonical key. The key itself is stored in the file's metadata and
// checked on load, so a hash collision degrades to a miss, never to a
// wrong image.
func fileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + ".img"
}

// Load returns the stored image for key, or reports a miss. Any defect
// in the stored file — bad checksum, stale version, foreign layout,
// failed digest check — removes the file and reports a miss. On a
// hit the image's big arrays alias a file mapping that stays alive for
// the rest of the process.
func (s *Store) Load(key string) (*checkpoint.Image, bool) {
	path := filepath.Join(s.dir, fileName(key))
	data, mapped, err := mapFile(path)
	if err != nil {
		// A present but unmappable file (zero-length, unreadable) can
		// never load and would make Save skip the slot forever; clear it.
		if !os.IsNotExist(err) {
			_ = os.Remove(path)
		}
		return nil, false
	}
	img, storedKey, err := decodeImage(data, s.u)
	if err != nil || storedKey != key {
		unmapFile(data, mapped)
		_ = os.Remove(path)
		return nil, false
	}
	return img, true
}

// Save writes img under key. Best-effort: failures leave the store as
// it was and cost only the boot the caller already paid. If the key is
// already stored the existing file wins — with content addressing both
// writers hold equivalent images.
func (s *Store) Save(key string, img *checkpoint.Image) {
	path := filepath.Join(s.dir, fileName(key))
	if _, err := os.Stat(path); err == nil {
		return
	}
	tmp, err := os.CreateTemp(s.dir, ".img-*")
	if err != nil {
		return
	}
	bw := bufio.NewWriterSize(tmp, 64<<10)
	werr := writeImage(bw, key, img)
	if werr == nil {
		werr = bw.Flush()
	}
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
	}
}

// List returns the store's image file names in sorted order, so any
// iteration over the store is deterministic regardless of directory
// enumeration order.
func (s *Store) List() ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".img" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}
