package fleet

// LiveCounters are the manager's live counters — the ones no session
// record carries — for tests that pin how /metrics renders them.
type LiveCounters struct {
	HTTPPanics, WorkerPanics               int
	CheckpointsWritten, CheckpointFailures int
	ShedQueueFull, ShedMaxStreams          int
}

// AddLiveCounters raises the manager's live counters by c, as if the
// events had happened.
func AddLiveCounters(m *Manager, c LiveCounters) {
	m.httpPanics.Add(int64(c.HTTPPanics))
	m.panics.Add(int64(c.WorkerPanics))
	m.ckptDone.Add(int64(c.CheckpointsWritten))
	m.ckptFailed.Add(int64(c.CheckpointFailures))
	m.shedQueue.Add(int64(c.ShedQueueFull))
	m.shedStreams.Add(int64(c.ShedMaxStreams))
}
