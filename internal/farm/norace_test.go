//go:build !race

package farm

const raceBuild = false
