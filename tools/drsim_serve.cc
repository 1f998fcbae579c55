// `drsim serve` as its own binary.  perfbench/CMakeLists.txt compiles
// this file alone against drsim_serve_lib and launches it as
// `drsim_serve --port 0 --cache DIR`, so it stays; the main build
// builds it too, so a break shows in tier-1.

#include "serve/server.hh"

int
main(int argc, char **argv)
{
    return drsim::serve::daemonMain(argc - 1, argv + 1);
}
