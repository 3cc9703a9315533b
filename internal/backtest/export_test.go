package backtest

// TinyConfig exposes tinyConfig to the external test package.
var TinyConfig = tinyConfig
