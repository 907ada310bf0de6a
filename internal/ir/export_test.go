package ir

import "repro/internal/region"

// ExecLaunch runs launch l through r as ExecSequential does, handing the
// reduce buffers back to r's instances once folded.
func (r *RootArgs) ExecLaunch(env MapEnv, l *Launch) { r.execLaunch(env, l) }

// SpareBuffers returns the reduce buffers handed back to r's instances.
func (r *RootArgs) SpareBuffers() []*region.Store {
	var bufs []*region.Store
	for _, site := range r.sites {
		for _, inst := range site.insts {
			for _, buf := range inst.spare {
				if buf != nil {
					bufs = append(bufs, buf)
				}
			}
		}
	}
	return bufs
}
