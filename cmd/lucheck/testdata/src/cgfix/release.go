//go:build go1.1

package cgfix

// releaseTag sits behind a release tag, which every go toolchain since
// 1.1 satisfies: the loader must evaluate tags the way the go tool does,
// not only the platform ones.
func releaseTag() string { return "go1.1" }
