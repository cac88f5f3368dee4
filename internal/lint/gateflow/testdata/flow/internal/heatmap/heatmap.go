package heatmap

type Collector struct{ n int }

func (c *Collector) Defect(r, col int) { c.n++ }

type Set struct{}
