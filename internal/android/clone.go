package android

import "repro/internal/vm"

// Clone duplicates the booted system for a checkpoint fork: the kernel
// machine is cloned copy-on-write (core.Kernel.Clone) and the system's
// direct references — zygote process and page-cache files — are remapped
// into the clone. Address-plan fields (library bases, image addresses)
// are immutable after boot and shared as-is.
func (sys *System) Clone() *System {
	k2, cc := sys.Kernel.Clone()
	c := &System{
		Kernel:      k2,
		Universe:    sys.Universe,
		Layout:      sys.Layout,
		Zygote:      k2.ProcessByPID(sys.Zygote.PID),
		libCodeBase: sys.libCodeBase,
		libDataBase: sys.libDataBase,
		javaCode:    sys.javaCode,
		javaData:    sys.javaData,
		javaFile:    cc.File(sys.javaFile),
		appFile:     cc.File(sys.appFile),
		Opts:        sys.Opts,
	}
	c.libFiles = make([]*vm.File, len(sys.libFiles))
	for i, f := range sys.libFiles {
		c.libFiles[i] = cc.File(f)
	}
	return c
}

// Files returns every page-cache file the boot created — the per-library
// code files, the ART boot image, and the app file — in a stable order,
// the order snapshots index them in.
func (sys *System) Files() []*vm.File {
	out := make([]*vm.File, 0, len(sys.libFiles)+2)
	out = append(out, sys.libFiles...)
	out = append(out, sys.javaFile, sys.appFile)
	return out
}
