package cluster

// jobQueue is a tenant's waiting gangs: a deque over one slice whose
// live part is buf[head:]. Popping the front advances head, so a held
// head pushed back to the front lands in the slot it left, without a
// copy or an allocation. Pushing to the back first reclaims the dead
// front by compacting once it is at least as long as the live part;
// pushing to the front with no room there regrows with as much room in
// front as there are jobs. Both stay amortized O(1).
type jobQueue struct {
	buf  []*job
	head int
}

// Len returns the number of queued jobs.
func (q *jobQueue) Len() int { return len(q.buf) - q.head }

// Front returns the first job; the queue must not be empty.
func (q *jobQueue) Front() *job { return q.buf[q.head] }

// PopFront removes and returns the first job; the queue must not be
// empty.
//
//repro:hotpath pinned by TestClusterAdmitAllocs
func (q *jobQueue) PopFront() *job {
	j := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	return j
}

// PushFront puts j ahead of every queued job.
//
//repro:hotpath pinned by TestClusterAdmitAllocs
func (q *jobQueue) PushFront(j *job) {
	if q.head == 0 {
		n := len(q.buf)
		room := max(n, 4)
		//repro:allow:hotpathalloc front growth doubles the room, so it is amortized; a popped head returns to its own slot
		buf := make([]*job, room+n, room+cap(q.buf))
		copy(buf[room:], q.buf)
		q.buf, q.head = buf, room
	}
	q.head--
	q.buf[q.head] = j
}

// PushBack puts j behind every queued job.
func (q *jobQueue) PushBack(j *job) {
	if n := q.Len(); len(q.buf) == cap(q.buf) && q.head >= n {
		copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, j)
}
