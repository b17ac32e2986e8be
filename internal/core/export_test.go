package core

// CompareLoaders exports compareLoaders to the external test package.
var CompareLoaders = compareLoaders
