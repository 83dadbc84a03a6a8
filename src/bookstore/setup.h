#ifndef PHOENIX_BOOKSTORE_SETUP_H_
#define PHOENIX_BOOKSTORE_SETUP_H_

#include <string>
#include <vector>

#include "core/phoenix.h"

namespace phoenix::bookstore {

// The three configurations measured in Table 8.
enum class OptLevel {
  // IDEAS'03 behavior: every component persistent, Algorithm 1 logging.
  kBaseline,
  // Algorithm 2/3 logging, but still all-persistent components.
  kOptimizedLogging,
  // Specialized kinds (Figure 10's letters: PriceGrabber read-only,
  // TaxCalculator functional, BasketManager subordinate) + read-only
  // methods.
  kSpecialized,
};

const char* OptLevelName(OptLevel level);

// Runtime switches matching `level` (checkpointing left off; benches toggle
// it separately).
RuntimeOptions OptionsForLevel(OptLevel level);

struct Deployment {
  std::vector<std::string> store_uris;
  std::string grabber_uri;
  std::string seller_uri;
  std::string tax_uri;
  Process* server_process = nullptr;
  Process* store_process = nullptr;  // == server_process unless split
};

// Registers the five component types with the simulation's factories.
void RegisterBookstoreComponents(ComponentFactoryRegistry& factories);

// Creates the Figure 10 component graph in one process on `server_machine`:
// `num_stores` bookstores, the price grabber, the tax calculator and the
// book seller, with kinds chosen by `level`. With `split_stores` the
// bookstores live in a second process on the same machine, so the seller
// reaches them across a process boundary.
Result<Deployment> Deploy(Simulation& sim, Machine& server_machine,
                          int num_stores, OptLevel level,
                          bool split_stores = false);

// One §5.5 BookBuyer session (the measured operation set):
//   i)   search for books with keyword "recovery";
//   ii)  add a book from each bookstore to the shopping basket;
//   iii) show the basket and compute the total price including tax;
//   iv)  remove all the books from the basket.
struct SessionResult {
  int64_t search_hits = 0;
  int64_t items_in_basket = 0;
  double total_with_tax = 0.0;
  int64_t items_removed = 0;
};
Result<SessionResult> RunBuyerSession(Simulation& sim,
                                      const Deployment& deployment,
                                      ExternalClient& buyer,
                                      const std::string& buyer_name,
                                      const std::string& region);

}  // namespace phoenix::bookstore

#endif  // PHOENIX_BOOKSTORE_SETUP_H_
