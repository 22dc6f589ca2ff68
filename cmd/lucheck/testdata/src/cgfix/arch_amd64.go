package cgfix

// archTag's amd64 variant: the loader must pick exactly one of the
// per-arch files, or the package declares archTag twice and does not
// type-check.
func archTag() string { return "amd64" }
