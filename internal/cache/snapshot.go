// Persistent-image support: serializable snapshots (internal/imagestore).
// A cache's state is its tags, its per-set MRU registers, register-miss
// streaks and age matrices, and its counters; everything else is
// derived from the Config at construction or, like the valid-way counts
// and fingerprints, from the tags. Snapshots keep the column form (one array per field) the
// image format stores, so the set-record layout never reaches a file.
// The MRU registers must be stored, not rebuilt: a first-slot register
// hit deliberately skips the age-matrix touch, so a restored machine
// with cleared registers would diverge from the captured one on its
// first access. The streaks are stored too: they decide when a register
// rotates, so a restored level starting from zero streaks would fill
// its registers differently from the captured one as it runs.

package cache

import "fmt"

// MRUSnapshot is the serializable form of one set's MRU register.
//
//satlint:frozen stored MRU arrays are cast in place over the mapped image file
type MRUSnapshot struct {
	Tag, Tag2 uint32
	Way, Way2 int32
}

// Snapshot is the serializable state of one cache level.
type Snapshot struct {
	Config     Config
	MemLatency int
	Stats      Stats
	Tags       []uint32
	MRU        []MRUSnapshot
	Age        []uint64
	Skip       []uint8
}

// SnapshotState captures the level's state in column form: Tags holds
// assoc tags per set in set order, MRU, Age and Skip one element per
// set. The
// slices are fresh; the snapshot is independent of the live cache.
func (c *Cache) SnapshotState() Snapshot {
	s := Snapshot{Config: c.cfg, MemLatency: c.memLatency, Stats: c.stats}
	s.Tags = make([]uint32, 0, len(c.sets)*c.assoc)
	s.MRU = make([]MRUSnapshot, len(c.sets))
	s.Age = make([]uint64, len(c.sets))
	s.Skip = make([]uint8, len(c.sets))
	for i := range c.sets {
		set := &c.sets[i]
		s.Tags = append(s.Tags, set.tags[:c.assoc]...)
		m := set.mru
		s.MRU[i] = MRUSnapshot{Tag: m.tag, Tag2: m.tag2, Way: int32(m.way), Way2: int32(m.way2)}
		s.Age[i] = set.age
		s.Skip[i] = set.skip
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
// prefix), a register slot whose way is outside the set, a valid
// register tag that is not resident at its recorded way (the residency
// invariant documented on cset.mru), or a streak outside the cycle
// promote steps through.
func Restore(s Snapshot, next *Cache) (*Cache, error) {
	c := New(s.Config, next, s.MemLatency)
	nSets, assoc := len(c.sets), c.assoc
	if len(s.Tags) != nSets*assoc {
		return nil, fmt.Errorf("cache %s: snapshot has %d tags, geometry wants %d", s.Config.Name, len(s.Tags), nSets*assoc)
	}
	if len(s.MRU) != nSets {
		return nil, fmt.Errorf("cache %s: snapshot has %d MRU registers, geometry wants %d", s.Config.Name, len(s.MRU), nSets)
	}
	if len(s.Age) != nSets || len(s.Skip) != nSets {
		return nil, fmt.Errorf("cache %s: snapshot has %d age words and %d streaks, geometry wants %d",
			s.Config.Name, len(s.Age), len(s.Skip), nSets)
	}
	for i := range c.sets {
		if err := c.loadSet(i, s.Tags[i*assoc:(i+1)*assoc], s.MRU[i], s.Age[i], s.Skip[i]); err != nil {
			return nil, err
		}
	}
	c.stats = s.Stats
	return c, nil
}

// loadSet fills set i's record, empty on entry, from its columns, and
// reports what the record cannot represent (see Restore).
func (c *Cache) loadSet(i int, tags []uint32, m MRUSnapshot, age uint64, skip uint8) error {
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
	for _, slot := range [2]struct {
		tag uint32
		way int32
	}{{m.Tag, m.Way}, {m.Tag2, m.Way2}} {
		if slot.way < 0 || int(slot.way) >= c.assoc {
			return fmt.Errorf("cache %s: set %d MRU way %d outside %d ways", c.cfg.Name, i, slot.way, c.assoc)
		}
		if slot.tag != tagInvalid && set.tags[slot.way] != slot.tag {
			return fmt.Errorf("cache %s: set %d MRU tag %#x not resident at way %d", c.cfg.Name, i, slot.tag, slot.way)
		}
	}
	if skip >= mruSkipThreshold+mruRetryPeriod {
		return fmt.Errorf("cache %s: set %d streak %d outside [0, %d)", c.cfg.Name, i, skip, mruSkipThreshold+mruRetryPeriod)
	}
	set.mru = mruPair{tag: m.Tag, tag2: m.Tag2, way: uint8(m.Way), way2: uint8(m.Way2)}
	set.age = age
	set.skip = skip
	return nil
}
