/// \file main.cpp
/// \brief `nodebench` entry point; the commands live in cli.cpp.

#include "cli/cli.hpp"

int main(int argc, char** argv) { return nodebench::cli::run(argc, argv); }
