package metrics

type Counter struct{ n uint64 }

func (c *Counter) Add(d uint64) { c.n += d }

type Histogram struct{ sum float64 }

func (h *Histogram) Observe(v float64) { h.sum += v }
