// Package arena provides Ring, a fixed-capacity FIFO with an eviction
// seam. The flight recorder (obs.Flight) keeps its newest records in
// one.
package arena

// Ring is a fixed-capacity FIFO ring buffer: Push appends a value and,
// once the buffer is full, evicts and returns the oldest one, which
// the caller may spill. Memory stays fixed however many values pass
// through.
//
// The buffer is allocated once by NewRing and never grows; Push is
// allocation-free. Ring is not safe for concurrent use.
type Ring[T any] struct {
	buf   []T
	head  int // index of the oldest element
	count int
}

// NewRing returns a ring holding at most capacity elements. Capacity
// must be positive.
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		panic("arena: ring capacity must be positive")
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Cap returns the fixed capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len returns the number of buffered elements.
func (r *Ring[T]) Len() int { return r.count }

// Push appends v. When the ring is full the oldest element is evicted
// and returned with evicted=true; the caller owns spilling it.
//
//repro:hotpath pinned by TestRingPushAllocs
func (r *Ring[T]) Push(v T) (old T, evicted bool) {
	if r.count < len(r.buf) {
		r.buf[(r.head+r.count)%len(r.buf)] = v
		r.count++
		return old, false
	}
	old = r.buf[r.head]
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
	return old, true
}

// At returns the i-th buffered element, oldest first. It panics when i
// is out of [0, Len()).
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.count {
		panic("arena: ring index out of range")
	}
	return r.buf[(r.head+i)%len(r.buf)]
}

// Snapshot appends the buffered elements, oldest first, to dst and
// returns the extended slice.
func (r *Ring[T]) Snapshot(dst []T) []T {
	for i := 0; i < r.count; i++ {
		dst = append(dst, r.At(i))
	}
	return dst
}

// Reset empties the ring, zeroing the buffer so evicted references are
// released for the GC. Capacity is retained.
func (r *Ring[T]) Reset() {
	clear(r.buf)
	r.head, r.count = 0, 0
}
