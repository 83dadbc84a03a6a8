#include "bookstore/setup.h"

#include "bookstore/basket_manager.h"
#include "bookstore/book_seller.h"
#include "bookstore/bookstore.h"
#include "bookstore/price_grabber.h"
#include "bookstore/tax_calculator.h"
#include "common/strings.h"

namespace phoenix::bookstore {

const char* OptLevelName(OptLevel level) {
  switch (level) {
    case OptLevel::kBaseline:
      return "baseline";
    case OptLevel::kOptimizedLogging:
      return "optimized_logging";
    case OptLevel::kSpecialized:
      return "specialized";
  }
  return "unknown";
}

RuntimeOptions OptionsForLevel(OptLevel level) {
  RuntimeOptions opts;
  switch (level) {
    case OptLevel::kBaseline:
      opts.logging_mode = LoggingMode::kBaseline;
      opts.use_specialized_kinds = false;
      break;
    case OptLevel::kOptimizedLogging:
      opts.logging_mode = LoggingMode::kOptimized;
      opts.use_specialized_kinds = false;
      break;
    case OptLevel::kSpecialized:
      opts.logging_mode = LoggingMode::kOptimized;
      opts.use_specialized_kinds = true;
      break;
  }
  return opts;
}

void RegisterBookstoreComponents(ComponentFactoryRegistry& factories) {
  factories.Register<Bookstore>("Bookstore");
  factories.Register<PriceGrabber>("PriceGrabber");
  factories.Register<TaxCalculator>("TaxCalculator");
  factories.Register<BookSeller>("BookSeller");
  factories.Register<BasketManager>("BasketManager");
}

Result<Deployment> Deploy(Simulation& sim, Machine& server_machine,
                          int num_stores, OptLevel level, bool split_stores) {
  bool specialized = level == OptLevel::kSpecialized;
  Deployment out;
  Process& proc = server_machine.CreateProcess();
  out.server_process = &proc;
  out.store_process =
      split_stores ? &server_machine.CreateProcess() : &proc;
  ExternalClient admin(&sim, server_machine.name());

  for (int i = 1; i <= num_stores; ++i) {
    PHX_ASSIGN_OR_RETURN(
        std::string uri,
        admin.CreateComponent(*out.store_process, "Bookstore",
                              StrCat("store", i),
                              ComponentKind::kPersistent,
                              MakeArgs(StrCat("Store-", i))));
    out.store_uris.push_back(std::move(uri));
  }

  ArgList grabber_args;
  for (const std::string& uri : out.store_uris) {
    grabber_args.emplace_back(uri);
  }
  PHX_ASSIGN_OR_RETURN(
      out.grabber_uri,
      admin.CreateComponent(proc, "PriceGrabber", "grabber",
                            specialized ? ComponentKind::kReadOnly
                                        : ComponentKind::kPersistent,
                            std::move(grabber_args)));

  PHX_ASSIGN_OR_RETURN(
      out.tax_uri,
      admin.CreateComponent(proc, "TaxCalculator", "tax",
                            specialized ? ComponentKind::kFunctional
                                        : ComponentKind::kPersistent,
                            {}));

  PHX_ASSIGN_OR_RETURN(
      out.seller_uri,
      admin.CreateComponent(proc, "BookSeller", "seller",
                            ComponentKind::kPersistent,
                            MakeArgs(out.tax_uri, specialized)));
  return out;
}

Result<SessionResult> RunBuyerSession(Simulation& sim,
                                      const Deployment& deployment,
                                      ExternalClient& buyer,
                                      const std::string& buyer_name,
                                      const std::string& region) {
  (void)sim;
  SessionResult result;

  // i) keyword search through the price grabber.
  PHX_ASSIGN_OR_RETURN(
      Value hits, buyer.Call(deployment.grabber_uri, "Search",
                             MakeArgs(std::string("recovery"))));
  result.search_hits = static_cast<int64_t>(hits.AsList().size());

  // ii) add the first hit from each store to the basket.
  for (const std::string& store : deployment.store_uris) {
    for (const Value& row : hits.AsList()) {
      if (row.AsList()[0].AsString() == store) {
        PHX_ASSIGN_OR_RETURN(
            Value count,
            buyer.Call(deployment.seller_uri, "AddToBasket",
                       MakeArgs(buyer_name, store, row.AsList()[1].AsInt())));
        result.items_in_basket = count.AsInt();
        break;
      }
    }
  }

  // iii) show the basket, then total price including tax (the buyer asks
  // the tax calculator directly, per Figure 10's arrows).
  PHX_ASSIGN_OR_RETURN(Value items,
                       buyer.Call(deployment.seller_uri, "ShowBasket",
                                  MakeArgs(buyer_name)));
  (void)items;
  PHX_ASSIGN_OR_RETURN(Value subtotal,
                       buyer.Call(deployment.seller_uri, "BasketSubtotal",
                                  MakeArgs(buyer_name)));
  PHX_ASSIGN_OR_RETURN(
      Value total, buyer.Call(deployment.tax_uri, "TotalWithTax",
                              MakeArgs(subtotal.AsDouble(), region)));
  result.total_with_tax = total.AsDouble();

  // iv) remove all the books from the shopping basket.
  PHX_ASSIGN_OR_RETURN(Value removed,
                       buyer.Call(deployment.seller_uri, "ClearBasket",
                                  MakeArgs(buyer_name)));
  result.items_removed = removed.AsInt();
  return result;
}

}  // namespace phoenix::bookstore
