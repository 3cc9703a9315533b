//go:build !race

package explore

const raceBuild = false
