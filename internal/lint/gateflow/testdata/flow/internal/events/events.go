package events

import "fix/internal/mc"

type Sampler struct{ last mc.Progress }

func (s *Sampler) ObserveCell(cell string, p mc.Progress) { s.last = p }
