package buildtags

const lanes = 4
