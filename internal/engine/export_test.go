package engine

// RunTabular is the reference execution on ToAlgebra's Tabular, for the
// external tests that feed it the scenario generators' instances.
var RunTabular = runTabular
