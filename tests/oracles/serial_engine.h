// Test oracle for the speculative-window engine (DESIGN.md Section 10): the
// seed's pure round-robin serial loop. Simulation runs steady epochs as
// speculative windows at every shard count and keeps RunRoundsSerial for
// setup epochs, failed-window replays and penalty spans; this friend routes
// every steady epoch through that loop as well, so a test can diff the
// windowed result against the serial interleaving it must reproduce.
#ifndef NUMALP_TESTS_ORACLES_SERIAL_ENGINE_H_
#define NUMALP_TESTS_ORACLES_SERIAL_ENGINE_H_

#include "src/core/simulation.h"

namespace numalp {

class SerialEngine {
 public:
  // Runs `simulation` (not yet run) on the pure serial loop.
  static RunResult Run(Simulation& simulation) {
    simulation.pure_serial_ = true;
    return simulation.Run();
  }
};

}  // namespace numalp

#endif  // NUMALP_TESTS_ORACLES_SERIAL_ENGINE_H_
