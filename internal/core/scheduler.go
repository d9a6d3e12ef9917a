package core

// SchedPolicy selects how an OS-level dispatcher orders waiting requests
// before handing them to the (single-queue, FIFO) eMMC device. The paper's
// Implication 1 argues that host-side queueing machinery buys little on
// smartphone workloads because requests rarely wait at all.
type SchedPolicy int

const (
	// SchedFIFO dispatches in arrival order (the baseline replayer).
	SchedFIFO SchedPolicy = iota
	// SchedSJF dispatches the smallest waiting request first — the
	// strongest simple reordering a host queue could do.
	SchedSJF
	// SchedReadFirst dispatches waiting reads before writes (read
	// prioritization, a common host-side trick).
	SchedReadFirst
)

// String names the policy.
func (p SchedPolicy) String() string {
	switch p {
	case SchedSJF:
		return "SJF"
	case SchedReadFirst:
		return "read-first"
	}
	return "FIFO"
}
