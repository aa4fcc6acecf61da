// Persistent-image support: serializable snapshots (internal/imagestore).
// A cache's state is its tags, its per-set age matrices, and its
// counters; everything else is derived from the Config at construction
// or, like the valid-way counts and fingerprints, from the tags.
// Snapshots keep the column form (one array per field) the image format
// stores, so the set-record layout never reaches a file.

package cache

import "fmt"

// Snapshot is the serializable state of one cache level.
type Snapshot struct {
	Config     Config
	MemLatency int
	Stats      Stats
	Tags       []uint32
	Age        []uint64
}

// SnapshotState captures the level's state in column form: Tags holds
// assoc tags per set in set order, Age one word per set. The slices are
// fresh; the snapshot is independent of the live cache.
func (c *Cache) SnapshotState() Snapshot {
	s := Snapshot{Config: c.cfg, MemLatency: c.memLatency, Stats: c.stats}
	s.Tags = make([]uint32, 0, len(c.sets)*c.assoc)
	s.Age = make([]uint64, len(c.sets))
	for i := range c.sets {
		set := &c.sets[i]
		s.Tags = append(s.Tags, set.tags[:c.assoc]...)
		s.Age[i] = set.age
	}
	return s
}

// Restore rebuilds a cache level over the given lower level from the
// column-form snapshot, building each set's record from its columns and
// deriving the valid-way count and fingerprints from its tags. The
// snapshot's slices are only read, so they may point into a
// memory-mapped image.
//
// Restore rejects with an error any snapshot the set records cannot
// represent: a valid way after an empty one (the valid ways must form a
// prefix).
func Restore(s Snapshot, next *Cache) (*Cache, error) {
	c := New(s.Config, next, s.MemLatency)
	nSets, assoc := len(c.sets), c.assoc
	if len(s.Tags) != nSets*assoc {
		return nil, fmt.Errorf("cache %s: snapshot has %d tags, geometry wants %d", s.Config.Name, len(s.Tags), nSets*assoc)
	}
	if len(s.Age) != nSets {
		return nil, fmt.Errorf("cache %s: snapshot has %d age words, geometry wants %d", s.Config.Name, len(s.Age), nSets)
	}
	for i := range c.sets {
		if err := c.loadSet(i, s.Tags[i*assoc:(i+1)*assoc], s.Age[i]); err != nil {
			return nil, err
		}
	}
	c.stats = s.Stats
	return c, nil
}

// loadSet fills set i's record, empty on entry, from its columns, and
// reports what the record cannot represent (see Restore).
func (c *Cache) loadSet(i int, tags []uint32, age uint64) error {
	set := &c.sets[i]
	for w, tag := range tags {
		if tag == tagInvalid {
			continue
		}
		if w != int(set.used) {
			return fmt.Errorf("cache %s: set %d way %d is valid after an empty way", c.cfg.Name, i, w)
		}
		set.tags[w&7] = tag
		set.fp |= c.fingerprint(tag) & (0xFF << (8 * w))
		set.used++
	}
	set.age = age
	return nil
}
