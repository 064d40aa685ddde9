package sim

// LoadMeter measures a server's normalized load as the fraction of busy time
// over a sliding window Ω (paper §3.1). The estimate at time t blends the
// last fully completed window with the in-progress one:
//
//	load(t) ≈ prevWindowBusy·(1−f) + curWindowBusy, f = elapsed fraction of Ω
//
// which tracks the true sliding-window busy fraction with at most one-window
// lag, is O(1) per update, and is "locally defined" and "linearly comparable"
// as the paper requires of a load metric.
type LoadMeter struct {
	window    Time
	winStart  Time    // start of the current window
	curBusy   Time    // busy seconds accumulated in current window
	prevFrac  float64 // busy fraction of the previous completed window
	lastBusyT Time    // high-water mark of accounted busy time
}

// NewLoadMeter creates a meter with the given window Ω (seconds, > 0).
func NewLoadMeter(window Time) *LoadMeter {
	if window <= 0 {
		panic("sim: LoadMeter requires positive window")
	}
	return &LoadMeter{window: window}
}

// Window returns Ω.
func (m *LoadMeter) Window() Time { return m.window }

// roll advances the window bookkeeping so that `now` falls within the
// current window.
func (m *LoadMeter) roll(now Time) {
	for now >= m.winStart+m.window {
		m.prevFrac = m.curBusy / m.window
		m.curBusy = 0
		m.winStart += m.window
		// If we've skipped multiple idle windows, the previous window's
		// fraction must decay to zero rather than persist.
		if now >= m.winStart+m.window {
			m.prevFrac = 0
			skipped := int((now - m.winStart) / m.window)
			m.winStart += Time(skipped) * m.window
		}
	}
}

// AddBusy records that the server was busy during [from, to), splitting the
// interval across window boundaries. Intervals must be non-decreasing in
// time (from >= the end of the previous interval).
func (m *LoadMeter) AddBusy(from, to Time) {
	if to <= from {
		return
	}
	if from < m.lastBusyT {
		from = m.lastBusyT // guard against accidental overlap double-counting
		if to <= from {
			return
		}
	}
	m.lastBusyT = to
	for from < to {
		m.roll(from)
		end := m.winStart + m.window
		if end > to {
			end = to
		}
		m.curBusy += end - from
		from = end
	}
}

// Charge adds busy seconds to the window containing `now`, with no overlap
// guard: concurrent serves each count in full, and Load clamps at 1.
func (m *LoadMeter) Charge(now, busy Time) {
	if busy <= 0 {
		return
	}
	m.roll(now)
	m.curBusy += busy
}

// Load returns the load estimate at time `now`, in [0, 1].
func (m *LoadMeter) Load(now Time) float64 {
	m.roll(now)
	f := (now - m.winStart) / m.window
	l := m.prevFrac*(1-f) + m.curBusy/m.window
	if l > 1 {
		l = 1
	}
	if l < 0 {
		l = 0
	}
	return l
}
