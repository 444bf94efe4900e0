package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"gpushare/internal/gpu"
)

func defaultDevice() gpu.DeviceSpec { return gpu.MustLookup("A100X") }

// Store is a keyed collection of task profiles with JSON persistence —
// the artifact an offline profiling campaign hands to the scheduler.
type Store struct {
	profiles map[string]*TaskProfile
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{profiles: make(map[string]*TaskProfile)}
}

// Add inserts a profile, rejecting duplicates (re-profiling should be an
// explicit Replace so campaigns notice accidental double runs) and
// profiles admission cannot fold (check).
func (s *Store) Add(p *TaskProfile) error {
	if p == nil {
		return fmt.Errorf("profile: Add(nil)")
	}
	if err := check(p); err != nil {
		return err
	}
	k := p.Key()
	if _, dup := s.profiles[k]; dup {
		return fmt.Errorf("profile: duplicate profile for %s", k)
	}
	s.profiles[k] = p
	return nil
}

// Replace inserts or overwrites a profile, rejecting what Add rejects
// but a duplicate.
func (s *Store) Replace(p *TaskProfile) error {
	if p == nil {
		return fmt.Errorf("profile: Replace(nil)")
	}
	if err := check(p); err != nil {
		return err
	}
	s.profiles[p.Key()] = p
	return nil
}

// check rejects a profile the dispatchers would refuse to build a
// workflow from (core.BuildWorkflowProfile): a negative memory peak, or
// a utilization or duration that is negative or not finite. Admission
// folds utilizations into per-GPU sums, where a NaN or an infinity
// makes the sums depend on operand order and a negative value lets them
// shrink as residents arrive.
func check(p *TaskProfile) error {
	if p.MaxMemMiB < 0 {
		return fmt.Errorf("profile: %s has negative memory %d MiB", p.Key(), p.MaxMemMiB)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"SM utilization", p.AvgSMUtilPct}, {"bandwidth utilization", p.AvgBWUtilPct}, {"duration", p.DurationS}} {
		if !(f.v >= 0 && f.v <= math.MaxFloat64) {
			return fmt.Errorf("profile: %s has %s %g, want finite and non-negative", p.Key(), f.name, f.v)
		}
	}
	return nil
}

// Get returns the profile for a workload/size.
func (s *Store) Get(workloadName, size string) (*TaskProfile, bool) {
	p, ok := s.profiles[Key(workloadName, size)]
	return p, ok
}

// Lookup returns the profile for a workload/size, inferring it by scaling
// when not directly stored but other sizes of the same workload are. The
// inferred profile is cached in the store (marked Inferred) once it
// passes the check Add runs; one that fails it is an error, and the store
// is left as it was.
func (s *Store) Lookup(workloadName, size string) (*TaskProfile, error) {
	if p, ok := s.Get(workloadName, size); ok {
		return p, nil
	}
	p, err := s.Infer(workloadName, size)
	if err != nil {
		return nil, err
	}
	if err := check(p); err != nil {
		return nil, err
	}
	s.profiles[p.Key()] = p
	return p, nil
}

// Len returns the number of stored profiles.
func (s *Store) Len() int { return len(s.profiles) }

// Keys returns the stored keys in sorted order.
func (s *Store) Keys() []string {
	out := make([]string, 0, len(s.profiles))
	for k := range s.profiles {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// All returns the profiles in key order.
func (s *Store) All() []*TaskProfile {
	keys := s.Keys()
	out := make([]*TaskProfile, len(keys))
	for i, k := range keys {
		out[i] = s.profiles[k]
	}
	return out
}

// ForWorkload returns the workload's profiles sorted by size factor.
func (s *Store) ForWorkload(workloadName string) []*TaskProfile {
	var out []*TaskProfile
	for _, p := range s.profiles {
		if p.Workload == workloadName {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SizeFactor < out[j].SizeFactor })
	return out
}

// storeFile is the JSON persistence schema.
type storeFile struct {
	Version  int            `json:"version"`
	Profiles []*TaskProfile `json:"profiles"`
}

const storeVersion = 1

// Save writes the store as JSON.
func (s *Store) Save(w io.Writer) error {
	f := storeFile{Version: storeVersion, Profiles: s.All()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// LoadStore reads a store written by Save.
func LoadStore(r io.Reader) (*Store, error) {
	var f storeFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("profile: decoding store: %w", err)
	}
	if f.Version != storeVersion {
		return nil, fmt.Errorf("profile: unsupported store version %d (want %d)", f.Version, storeVersion)
	}
	s := NewStore()
	for _, p := range f.Profiles {
		if err := s.Add(p); err != nil {
			return nil, err
		}
	}
	return s, nil
}
