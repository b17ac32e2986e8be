package core

// CompareLoaders exports compareLoaders to the external test package.
var CompareLoaders = compareLoaders

// RefJSON exports refJSON, the encoder reference for WriteJSON, to the
// external test package.
var RefJSON = refJSON
